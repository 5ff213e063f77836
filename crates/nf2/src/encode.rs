//! Binary encoding of NF² tuples.
//!
//! The format is deliberately DASDBS-flavoured: every (sub-)tuple carries a
//! small directory (header + attribute offset table), every sub-relation an
//! address table, so that any attribute or sub-tuple can be decoded without
//! touching unrelated bytes. The per-construct overheads are the constants in
//! [`crate::overhead`], calibrated against the paper's Table 2 (DESIGN.md §6).
//!
//! Wire format of a tuple at byte offset `P`:
//!
//! ```text
//! P+0   u16  magic (0x4E32, "N2")
//! P+2   u16  version (1)
//! P+4   u16  attribute count
//! P+6   u16  flags (0)
//! P+8   u32  total encoded length of the tuple
//! P+12  u64  reserved (0)                          -- 20-byte header
//! P+20  u32 × nattrs   attribute offsets, relative to P
//! ...   attribute values in schema order:
//!         INT   i32 (4 bytes)        LINK  u32 (4 bytes)
//!         STR   u16 length + bytes
//!         REL   u32 count, u32 byte length,        -- 8-byte subrel header
//!               u32 × count sub-tuple offsets (relative to REL start),
//!               sub-tuple encodings (recursive)
//! ```

use crate::layout::{AttrLayout, TupleLayout};
use crate::{overhead, AttrType, Nf2Error, Oid, Projection, RelSchema, Result, Tuple, Value};

const MAGIC: u16 = 0x4E32;
const VERSION: u16 = 1;

/// Computes the exact encoded length of `tuple` without encoding it.
///
/// This is the quantity the paper calls `S_tuple` (modulo the 4-byte page
/// slot entry, which the page layer accounts for).
pub fn encoded_len(tuple: &Tuple) -> usize {
    let mut n = overhead::TUPLE_HEADER + overhead::PER_ATTR * tuple.arity();
    for v in &tuple.values {
        n += value_len(v);
    }
    n
}

fn value_len(v: &Value) -> usize {
    match v {
        Value::Int(_) => 4,
        Value::Link(_) => Oid::ENCODED_LEN,
        Value::Str(s) => overhead::PER_STRING + s.len(),
        Value::Rel(ts) => {
            overhead::SUBREL_HEADER
                + ts.iter()
                    .map(|t| overhead::PER_SUBTUPLE + encoded_len(t))
                    .sum::<usize>()
        }
    }
}

/// Encodes `tuple` (validated against `schema`) into a byte vector.
pub fn encode(tuple: &Tuple, schema: &RelSchema) -> Result<Vec<u8>> {
    Ok(encode_with_layout(tuple, schema)?.0)
}

/// Encodes `tuple` and also returns its [`TupleLayout`] (the object-header
/// content the DASDBS models store on header pages).
pub fn encode_with_layout(tuple: &Tuple, schema: &RelSchema) -> Result<(Vec<u8>, TupleLayout)> {
    schema.validate(tuple)?;
    let mut out = Vec::with_capacity(encoded_len(tuple));
    let layout = encode_tuple(tuple, &mut out);
    debug_assert_eq!(out.len(), encoded_len(tuple), "encoded_len must be exact");
    Ok((out, layout))
}

fn encode_tuple(tuple: &Tuple, out: &mut Vec<u8>) -> TupleLayout {
    let start = out.len();
    let nattrs = tuple.arity();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(nattrs as u16).to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags
    out.extend_from_slice(&0u32.to_le_bytes()); // total_len, patched below
    out.extend_from_slice(&0u64.to_le_bytes()); // reserved
    let offset_table = out.len();
    out.resize(out.len() + 4 * nattrs, 0);

    let mut attrs = Vec::with_capacity(nattrs);
    for (i, v) in tuple.values.iter().enumerate() {
        let attr_start = out.len();
        let rel_off = (attr_start - start) as u32;
        out[offset_table + 4 * i..offset_table + 4 * i + 4].copy_from_slice(&rel_off.to_le_bytes());
        let tuples = encode_value(v, out);
        attrs.push(AttrLayout {
            start: attr_start as u32,
            len: (out.len() - attr_start) as u32,
            tuples,
        });
    }

    let total = (out.len() - start) as u32;
    out[start + 8..start + 12].copy_from_slice(&total.to_le_bytes());
    TupleLayout {
        start: start as u32,
        len: total,
        attrs,
    }
}

fn encode_value(v: &Value, out: &mut Vec<u8>) -> Vec<TupleLayout> {
    match v {
        Value::Int(i) => {
            out.extend_from_slice(&i.to_le_bytes());
            Vec::new()
        }
        Value::Link(oid) => {
            out.extend_from_slice(&oid.0.to_le_bytes());
            Vec::new()
        }
        Value::Str(s) => {
            debug_assert!(s.len() <= u16::MAX as usize, "string too long to encode");
            out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
            Vec::new()
        }
        Value::Rel(ts) => {
            let rel_start = out.len();
            out.extend_from_slice(&(ts.len() as u32).to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes()); // byte length, patched
            let table = out.len();
            out.resize(out.len() + 4 * ts.len(), 0);
            let mut layouts = Vec::with_capacity(ts.len());
            for (i, t) in ts.iter().enumerate() {
                let off = (out.len() - rel_start) as u32;
                out[table + 4 * i..table + 4 * i + 4].copy_from_slice(&off.to_le_bytes());
                layouts.push(encode_tuple(t, out));
            }
            let total = (out.len() - rel_start) as u32;
            out[rel_start + 4..rel_start + 8].copy_from_slice(&total.to_le_bytes());
            layouts
        }
    }
}

/// Decodes a tuple encoded at offset 0 of `bytes` against `schema`.
pub fn decode(bytes: &[u8], schema: &RelSchema) -> Result<Tuple> {
    decode_tuple_at(bytes, schema, 0)
}

/// Decodes a tuple encoded at absolute offset `start` of `bytes`.
pub fn decode_tuple_at(bytes: &[u8], schema: &RelSchema, start: usize) -> Result<Tuple> {
    let magic = get_u16(bytes, start)?;
    if magic != MAGIC {
        return Err(Nf2Error::Corrupt {
            offset: start,
            detail: format!("bad magic {magic:#06x}"),
        });
    }
    let version = get_u16(bytes, start + 2)?;
    if version != VERSION {
        return Err(Nf2Error::Corrupt {
            offset: start + 2,
            detail: format!("unsupported version {version}"),
        });
    }
    let nattrs = get_u16(bytes, start + 4)? as usize;
    if nattrs != schema.arity() {
        return Err(Nf2Error::SchemaMismatch {
            detail: format!(
                "relation {}: encoded arity {nattrs} != schema arity {}",
                schema.name,
                schema.arity()
            ),
        });
    }
    let mut values = Vec::with_capacity(nattrs);
    for (i, def) in schema.attrs.iter().enumerate() {
        let rel_off = get_u32(bytes, start + overhead::TUPLE_HEADER + 4 * i)? as usize;
        values.push(decode_attr(bytes, &def.ty, start + rel_off)?);
    }
    Ok(Tuple::new(values))
}

/// Decodes a single attribute value of type `ty` at absolute offset `start`.
///
/// This is the primitive the DASDBS models use for *partial* object reads:
/// combined with a stored [`TupleLayout`], any attribute can be decoded
/// without touching (or having fetched) the rest of the object.
pub fn decode_attr(bytes: &[u8], ty: &AttrType, start: usize) -> Result<Value> {
    match ty {
        AttrType::Int => Ok(Value::Int(get_u32(bytes, start)? as i32)),
        AttrType::Link => Ok(Value::Link(Oid(get_u32(bytes, start)?))),
        AttrType::Str => {
            let len = get_u16(bytes, start)? as usize;
            let s = bytes
                .get(start + 2..start + 2 + len)
                .ok_or_else(|| Nf2Error::Corrupt {
                    offset: start,
                    detail: format!("string of length {len} truncated"),
                })?;
            let s = std::str::from_utf8(s).map_err(|e| Nf2Error::Corrupt {
                offset: start + 2,
                detail: format!("invalid utf-8: {e}"),
            })?;
            Ok(Value::Str(s.to_owned()))
        }
        AttrType::Rel(sub) => {
            let count = get_u32(bytes, start)? as usize;
            let mut ts = Vec::with_capacity(count);
            for i in 0..count {
                let off = get_u32(bytes, start + overhead::SUBREL_HEADER + 4 * i)? as usize;
                ts.push(decode_tuple_at(bytes, sub, start + off)?);
            }
            Ok(Value::Rel(ts))
        }
    }
}

/// Decodes only the projected parts of an encoded object, using its layout.
///
/// `bytes` must contain valid data at least in the byte ranges
/// `projection.byte_ranges(layout)` — everything else may be unfetched
/// (zero-filled) without affecting the result. Unprojected attributes are
/// filled with neutral placeholders, as in [`Projection::apply`].
pub fn decode_projected(
    bytes: &[u8],
    schema: &RelSchema,
    layout: &TupleLayout,
    projection: &Projection,
) -> Result<Tuple> {
    match projection {
        Projection::All => decode_tuple_at(bytes, schema, layout.start as usize),
        Projection::Attrs(attrs) => {
            let mut values: Vec<Value> = schema
                .attrs
                .iter()
                .map(|a| match &a.ty {
                    AttrType::Int => Value::Int(0),
                    AttrType::Str => Value::Str(String::new()),
                    AttrType::Link => Value::Link(Oid(0)),
                    AttrType::Rel(_) => Value::Rel(Vec::new()),
                })
                .collect();
            for (i, sub) in attrs {
                let (Some(def), Some(al)) = (schema.attrs.get(*i), layout.attrs.get(*i)) else {
                    return Err(Nf2Error::BadProjection {
                        attr: *i,
                        available: schema.arity().min(layout.attrs.len()),
                    });
                };
                values[*i] = match &def.ty {
                    AttrType::Rel(s) if !sub.is_all() => {
                        let mut ts = Vec::with_capacity(al.tuples.len());
                        for tl in &al.tuples {
                            ts.push(decode_projected(bytes, s, tl, sub)?);
                        }
                        Value::Rel(ts)
                    }
                    ty => decode_attr(bytes, ty, al.start as usize)?,
                };
            }
            Ok(Tuple::new(values))
        }
    }
}

fn get_u16(bytes: &[u8], at: usize) -> Result<u16> {
    bytes
        .get(at..at + 2)
        .map(|s| u16::from_le_bytes(s.try_into().expect("2-byte slice")))
        .ok_or_else(|| Nf2Error::Corrupt {
            offset: at,
            detail: "truncated (u16)".into(),
        })
}

fn get_u32(bytes: &[u8], at: usize) -> Result<u32> {
    bytes
        .get(at..at + 4)
        .map(|s| u32::from_le_bytes(s.try_into().expect("4-byte slice")))
        .ok_or_else(|| Nf2Error::Corrupt {
            offset: at,
            detail: "truncated (u32)".into(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrDef;

    fn schema() -> RelSchema {
        RelSchema::new(
            "R",
            vec![
                AttrDef::new("a", AttrType::Int),
                AttrDef::new("b", AttrType::Str),
                AttrDef::new(
                    "c",
                    AttrType::Rel(Box::new(RelSchema::new(
                        "S",
                        vec![
                            AttrDef::new("x", AttrType::Link),
                            AttrDef::new("y", AttrType::Str),
                        ],
                    ))),
                ),
            ],
        )
    }

    fn tuple() -> Tuple {
        Tuple::new(vec![
            Value::Int(-5),
            Value::Str("hello world".into()),
            Value::Rel(vec![
                Tuple::new(vec![Value::Link(Oid(42)), Value::Str("α-β".into())]),
                Tuple::new(vec![Value::Link(Oid(7)), Value::Str(String::new())]),
            ]),
        ])
    }

    #[test]
    fn roundtrip() {
        let t = tuple();
        let bytes = encode(&t, &schema()).unwrap();
        assert_eq!(bytes.len(), encoded_len(&t));
        assert_eq!(decode(&bytes, &schema()).unwrap(), t);
    }

    #[test]
    fn roundtrip_empty_subrelation() {
        let t = Tuple::new(vec![
            Value::Int(1),
            Value::Str("s".into()),
            Value::Rel(vec![]),
        ]);
        let bytes = encode(&t, &schema()).unwrap();
        assert_eq!(decode(&bytes, &schema()).unwrap(), t);
    }

    #[test]
    fn encoded_len_matches_overhead_model() {
        // INT(4) + STR(2+11) + REL(8 + 2*(4 + subtuple)) with
        // subtuple = 20 + 2*4 + LINK(4) + STR(2+n)
        let t = tuple();
        let sub0 = 20 + 8 + 4 + 2 + "α-β".len();
        let sub1 = 20 + 8 + 4 + 2;
        let expect = 20 + 3 * 4 + 4 + (2 + 11) + (8 + (4 + sub0) + (4 + sub1));
        assert_eq!(encoded_len(&t), expect);
    }

    #[test]
    fn layout_matches_encoding() {
        let t = tuple();
        let (bytes, layout) = encode_with_layout(&t, &schema()).unwrap();
        assert_eq!(layout.start, 0);
        assert_eq!(layout.len as usize, bytes.len());
        assert_eq!(layout.attrs.len(), 3);
        // Attribute ranges tile the non-header region exactly.
        assert_eq!(layout.header_range().end, layout.attrs[0].start);
        assert_eq!(layout.attrs[0].range().end, layout.attrs[1].start);
        assert_eq!(layout.attrs[1].range().end, layout.attrs[2].start);
        assert_eq!(layout.attrs[2].range().end as usize, bytes.len());
        // Each attribute decodes independently at its layout offset.
        let v = decode_attr(&bytes, &AttrType::Int, layout.attrs[0].start as usize).unwrap();
        assert_eq!(v, Value::Int(-5));
        let v = decode_attr(&bytes, &AttrType::Str, layout.attrs[1].start as usize).unwrap();
        assert_eq!(v, Value::Str("hello world".into()));
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = encode(&tuple(), &schema()).unwrap();
        bytes[0] = 0xFF;
        assert!(matches!(
            decode(&bytes, &schema()),
            Err(Nf2Error::Corrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn decode_rejects_arity_mismatch() {
        let bytes = encode(&tuple(), &schema()).unwrap();
        let flat = RelSchema::new("F", vec![AttrDef::new("a", AttrType::Int)]);
        assert!(matches!(
            decode(&bytes, &flat),
            Err(Nf2Error::SchemaMismatch { .. })
        ));
    }

    /// Every bounds-checked read `decode` makes of a tuple, in decoding
    /// order, as `(offset, end, detail)`: the error a buffer cut before
    /// `end` must report. Derived from the encoder's layout, not the decoder.
    fn checked_reads(
        layout: &TupleLayout,
        schema: &RelSchema,
        out: &mut Vec<(usize, usize, String)>,
    ) {
        let u16_read = |at: usize| (at, at + 2, "truncated (u16)".to_string());
        let u32_read = |at: usize| (at, at + 4, "truncated (u32)".to_string());
        let p = layout.start as usize;
        out.extend([u16_read(p), u16_read(p + 2), u16_read(p + 4)]);
        for (i, (def, al)) in schema.attrs.iter().zip(&layout.attrs).enumerate() {
            out.push(u32_read(p + overhead::TUPLE_HEADER + 4 * i));
            let (at, len) = (al.start as usize, al.len as usize);
            match &def.ty {
                AttrType::Int | AttrType::Link => out.push(u32_read(at)),
                AttrType::Str => {
                    out.push(u16_read(at));
                    let detail = format!("string of length {} truncated", len - 2);
                    out.push((at, at + len, detail));
                }
                AttrType::Rel(sub) => {
                    out.push(u32_read(at));
                    for (j, tl) in al.tuples.iter().enumerate() {
                        out.push(u32_read(at + overhead::SUBREL_HEADER + 4 * j));
                        checked_reads(tl, sub, out);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let (bytes, layout) = encode_with_layout(&tuple(), &schema()).unwrap();
        let mut reads = Vec::new();
        checked_reads(&layout, &schema(), &mut reads);
        for cut in 0..bytes.len() {
            let (offset, _, detail) = reads
                .iter()
                .find(|(_, end, _)| *end > cut)
                .cloned()
                .expect("some read crosses every cut");
            assert_eq!(
                decode(&bytes[..cut], &schema()),
                Err(Nf2Error::Corrupt { offset, detail }),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn decode_projected_ignores_unfetched_ranges() {
        let t = tuple();
        let s = schema();
        let (bytes, layout) = encode_with_layout(&t, &s).unwrap();
        // Project only attr 0 and the links inside attr 2.
        let p = Projection::Attrs(vec![
            (0, Projection::All),
            (2, Projection::Attrs(vec![(0, Projection::All)])),
        ]);
        // Zero out everything the projection does not need.
        let needed = p.byte_ranges(&layout);
        let mut sparse = vec![0u8; bytes.len()];
        for r in &needed {
            sparse[r.start as usize..r.end as usize]
                .copy_from_slice(&bytes[r.start as usize..r.end as usize]);
        }
        let out = decode_projected(&sparse, &s, &layout, &p).unwrap();
        assert_eq!(out.attr(0).unwrap().as_int(), Some(-5));
        let sub = out.attr(2).unwrap().as_rel().unwrap();
        assert_eq!(sub[0].attr(0).unwrap().as_link(), Some(Oid(42)));
        assert_eq!(sub[1].attr(0).unwrap().as_link(), Some(Oid(7)));
        // Unprojected attrs are placeholders.
        assert_eq!(out.attr(1).unwrap().as_str(), Some(""));
        assert_eq!(sub[0].attr(1).unwrap().as_str(), Some(""));
    }

    #[test]
    fn decode_projected_full_equals_decode() {
        let t = tuple();
        let s = schema();
        let (bytes, layout) = encode_with_layout(&t, &s).unwrap();
        let out = decode_projected(&bytes, &s, &layout, &Projection::All).unwrap();
        assert_eq!(out, t);
    }
}
