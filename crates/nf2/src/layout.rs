use crate::{Nf2Error, Result};
use std::ops::Range;

/// Byte-range metadata for one encoded tuple.
///
/// A `TupleLayout` is the content of a DASDBS-style *object header*: it
/// records, for a stored object, which byte range of the encoded object each
/// attribute (and, recursively, each sub-tuple) occupies. The DASDBS storage
/// models keep this structure on dedicated header pages, "which allows
/// dedicated access to parts of a complex object" (paper §3.2): given a
/// [`crate::Projection`], the store computes the byte ranges it needs and
/// fetches only the data pages overlapping them.
///
/// All offsets are absolute within the encoded object's byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleLayout {
    /// First byte of the encoded tuple.
    pub start: u32,
    /// Encoded length in bytes.
    pub len: u32,
    /// Per-attribute layouts, in schema order.
    pub attrs: Vec<AttrLayout>,
}

/// Byte-range metadata for one attribute of an encoded tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrLayout {
    /// First byte of the encoded attribute value.
    pub start: u32,
    /// Encoded length in bytes.
    pub len: u32,
    /// Sub-tuple layouts; non-empty only for relation-valued attributes.
    pub tuples: Vec<TupleLayout>,
}

impl TupleLayout {
    /// The byte range of the whole encoded tuple.
    pub fn range(&self) -> Range<u32> {
        self.start..self.start + self.len
    }

    /// The byte range of the tuple's header + attribute offset table, i.e.
    /// the prefix that must always be read to interpret the tuple.
    pub fn header_range(&self) -> Range<u32> {
        let end = self
            .attrs
            .first()
            .map(|a| a.start)
            .unwrap_or(self.start + self.len);
        self.start..end
    }

    /// Serializes the layout for storage on an object-header page.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.write(&mut out);
        out
    }

    /// Number of bytes [`TupleLayout::to_bytes`] produces.
    pub fn serialized_len(&self) -> usize {
        // start + len + attr count
        let mut n = 4 + 4 + 2;
        for a in &self.attrs {
            n += 4 + 4 + 4; // start + len + tuple count
            for t in &a.tuples {
                n += t.serialized_len();
            }
        }
        n
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&(self.attrs.len() as u16).to_le_bytes());
        for a in &self.attrs {
            out.extend_from_slice(&a.start.to_le_bytes());
            out.extend_from_slice(&a.len.to_le_bytes());
            out.extend_from_slice(&(a.tuples.len() as u32).to_le_bytes());
            for t in &a.tuples {
                t.write(out);
            }
        }
    }

    /// Deserializes a layout previously produced by [`TupleLayout::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let layout = Self::read(bytes, &mut pos)?;
        Ok(layout)
    }

    fn read(bytes: &[u8], pos: &mut usize) -> Result<Self> {
        let start = read_u32(bytes, pos)?;
        let len = read_u32(bytes, pos)?;
        let nattrs = read_u16(bytes, pos)? as usize;
        let mut attrs = Vec::with_capacity(nattrs);
        for _ in 0..nattrs {
            let a_start = read_u32(bytes, pos)?;
            let a_len = read_u32(bytes, pos)?;
            let ntuples = read_u32(bytes, pos)? as usize;
            let mut tuples = Vec::with_capacity(ntuples);
            for _ in 0..ntuples {
                tuples.push(Self::read(bytes, pos)?);
            }
            attrs.push(AttrLayout {
                start: a_start,
                len: a_len,
                tuples,
            });
        }
        Ok(TupleLayout { start, len, attrs })
    }
}

impl AttrLayout {
    /// The byte range of the encoded attribute.
    pub fn range(&self) -> Range<u32> {
        self.start..self.start + self.len
    }
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let s = bytes.get(*pos..*pos + 4).ok_or_else(|| Nf2Error::Corrupt {
        offset: *pos,
        detail: "truncated layout (u32)".into(),
    })?;
    *pos += 4;
    Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
}

fn read_u16(bytes: &[u8], pos: &mut usize) -> Result<u16> {
    let s = bytes.get(*pos..*pos + 2).ok_or_else(|| Nf2Error::Corrupt {
        offset: *pos,
        detail: "truncated layout (u16)".into(),
    })?;
    *pos += 2;
    Ok(u16::from_le_bytes(s.try_into().expect("2-byte slice")))
}

/// Merges overlapping or adjacent byte ranges into a minimal sorted set.
///
/// Used when translating a projection into the page set to fetch: adjacent
/// attribute ranges coalesce so contiguous regions become single multi-page
/// I/O calls, as in DASDBS.
pub fn merge_ranges(mut ranges: Vec<Range<u32>>) -> Vec<Range<u32>> {
    ranges.retain(|r| r.end > r.start);
    ranges.sort_by_key(|r| (r.start, r.end));
    let mut out: Vec<Range<u32>> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
            _ => out.push(r),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_layout() -> TupleLayout {
        TupleLayout {
            start: 0,
            len: 100,
            attrs: vec![
                AttrLayout {
                    start: 28,
                    len: 4,
                    tuples: vec![],
                },
                AttrLayout {
                    start: 32,
                    len: 68,
                    tuples: vec![TupleLayout {
                        start: 44,
                        len: 56,
                        attrs: vec![AttrLayout {
                            start: 72,
                            len: 28,
                            tuples: vec![],
                        }],
                    }],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let l = sample_layout();
        let bytes = l.to_bytes();
        assert_eq!(bytes.len(), l.serialized_len());
        assert_eq!(TupleLayout::from_bytes(&bytes).unwrap(), l);
    }

    /// The widths of the serialized fields of `l`, in order.
    fn field_widths(l: &TupleLayout, out: &mut Vec<usize>) {
        out.extend([4, 4, 2]); // start, len, attr count
        for a in &l.attrs {
            out.extend([4, 4, 4]); // start, len, tuple count
            for t in &a.tuples {
                field_widths(t, out);
            }
        }
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let l = sample_layout();
        let bytes = l.to_bytes();
        let mut widths = Vec::new();
        field_widths(&l, &mut widths);
        let fields: Vec<(usize, usize)> = widths
            .iter()
            .scan(0, |at, &w| {
                *at += w;
                Some((*at - w, w))
            })
            .collect();
        for cut in 0..bytes.len() {
            // Fields are read front to back: the one holding byte `cut` fails.
            let &(offset, width) = fields
                .iter()
                .find(|(at, w)| at + w > cut)
                .expect("a field holds every byte");
            let detail = format!("truncated layout (u{})", 8 * width);
            assert_eq!(
                TupleLayout::from_bytes(&bytes[..cut]),
                Err(Nf2Error::Corrupt { offset, detail }),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn header_range_ends_at_first_attr() {
        let l = sample_layout();
        assert_eq!(l.header_range(), 0..28);
        let empty = TupleLayout {
            start: 4,
            len: 20,
            attrs: vec![],
        };
        assert_eq!(empty.header_range(), 4..24);
    }

    #[test]
    fn merge_ranges_coalesces() {
        assert_eq!(
            merge_ranges(vec![10..20, 0..10, 25..30, 19..22, 30..30]),
            vec![0..22, 25..30]
        );
        assert_eq!(merge_ranges(vec![]), Vec::<Range<u32>>::new());
    }
}
