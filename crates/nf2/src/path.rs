use crate::layout::merge_ranges;
use crate::{AttrType, Nf2Error, RelSchema, Result, Tuple, TupleLayout, Value};
use std::ops::Range;

/// Which parts of a complex object a query needs.
///
/// The benchmark's navigation queries (§2.2) "project/select only the
/// attributes and tuples that are needed" while walking an object; the
/// DASDBS-style storage models exploit this by fetching only the pages that
/// store projected parts. A `Projection` is a tree over attribute indices
/// mirroring the nested schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Projection {
    /// The whole (sub-)tuple.
    All,
    /// Only the listed attributes; relation-valued attributes carry a nested
    /// projection that applies to each of their sub-tuples.
    Attrs(Vec<(usize, Projection)>),
}

impl Projection {
    /// Projects every atomic attribute of `schema` (the "root record" of the
    /// paper's queries 2/3), skipping all relation-valued attributes.
    pub fn atomics(schema: &RelSchema) -> Projection {
        Projection::Attrs(
            schema
                .atomic_attr_indices()
                .into_iter()
                .map(|i| (i, Projection::All))
                .collect(),
        )
    }

    /// True if this projection selects the entire object.
    pub fn is_all(&self) -> bool {
        matches!(self, Projection::All)
    }

    /// Validates the projection against a schema (attribute indices in
    /// bounds; nested projections only under relation-valued attributes).
    pub fn validate(&self, schema: &RelSchema) -> Result<()> {
        match self {
            Projection::All => Ok(()),
            Projection::Attrs(attrs) => {
                for (i, sub) in attrs {
                    let def = schema
                        .attrs
                        .get(*i)
                        .ok_or_else(|| Nf2Error::BadProjection {
                            attr: *i,
                            available: schema.arity(),
                        })?;
                    match (&def.ty, sub) {
                        (AttrType::Rel(s), p) => p.validate(s)?,
                        (_, Projection::All) => {}
                        (_, Projection::Attrs(_)) => {
                            return Err(Nf2Error::SchemaMismatch {
                                detail: format!(
                                    "nested projection under atomic attribute {i} ({})",
                                    def.name
                                ),
                            });
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Computes the byte ranges of an encoded object this projection needs,
    /// given the object's layout. The tuple header + offset table of every
    /// visited (sub-)tuple is always included, as is each visited
    /// sub-relation's header — exactly the structure a DASDBS object header
    /// walk would touch. Ranges are merged and sorted.
    pub fn byte_ranges(&self, layout: &TupleLayout) -> Vec<Range<u32>> {
        let mut ranges = Vec::new();
        self.collect_ranges(layout, &mut ranges);
        merge_ranges(ranges)
    }

    fn collect_ranges(&self, layout: &TupleLayout, out: &mut Vec<Range<u32>>) {
        match self {
            Projection::All => out.push(layout.range()),
            Projection::Attrs(attrs) => {
                out.push(layout.header_range());
                for (i, sub) in attrs {
                    let Some(a) = layout.attrs.get(*i) else {
                        continue;
                    };
                    if sub.is_all() || a.tuples.is_empty() {
                        out.push(a.range());
                    } else {
                        // Sub-relation header + address table: the range from
                        // the attribute start to the first sub-tuple.
                        let table_end =
                            a.tuples.first().map(|t| t.start).unwrap_or(a.start + a.len);
                        out.push(a.start..table_end);
                        for t in &a.tuples {
                            sub.collect_ranges(t, out);
                        }
                    }
                }
            }
        }
    }

    /// Applies the projection to a decoded tuple, replacing unprojected
    /// attributes with neutral placeholders (`0`, `""`, empty relation).
    ///
    /// Queries must only consume projected attributes; the placeholders keep
    /// the tuple well-typed against its schema so downstream code that is
    /// projection-agnostic still works.
    pub fn apply(&self, tuple: &Tuple, schema: &RelSchema) -> Tuple {
        match self {
            Projection::All => tuple.clone(),
            Projection::Attrs(attrs) => {
                let mut values: Vec<Value> =
                    schema.attrs.iter().map(|a| neutral_value(&a.ty)).collect();
                for (i, sub) in attrs {
                    let (Some(v), Some(def)) = (tuple.attr(*i), schema.attrs.get(*i)) else {
                        continue;
                    };
                    values[*i] = match (&def.ty, v) {
                        (AttrType::Rel(s), Value::Rel(ts)) => {
                            Value::Rel(ts.iter().map(|t| sub.apply(t, s)).collect())
                        }
                        _ => v.clone(),
                    };
                }
                Tuple::new(values)
            }
        }
    }
}

fn neutral_value(ty: &AttrType) -> Value {
    match ty {
        AttrType::Int => Value::Int(0),
        AttrType::Str => Value::Str(String::new()),
        AttrType::Link => Value::Link(crate::Oid(0)),
        AttrType::Rel(_) => Value::Rel(Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_with_layout, AttrDef, Oid};

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
            Value::Int(1),
            Value::Str("hello".into()),
            Value::Rel(vec![
                Tuple::new(vec![Value::Link(Oid(7)), Value::Str("aaaa".into())]),
                Tuple::new(vec![Value::Link(Oid(8)), Value::Str("bbbb".into())]),
            ]),
        ])
    }

    #[test]
    fn atomics_projects_only_atomic_attrs() {
        let p = Projection::atomics(&schema());
        let out = p.apply(&tuple(), &schema());
        assert_eq!(out.attr(0).unwrap().as_int(), Some(1));
        assert_eq!(out.attr(1).unwrap().as_str(), Some("hello"));
        assert!(out.attr(2).unwrap().as_rel().unwrap().is_empty());
    }

    #[test]
    fn nested_projection_applies_recursively() {
        let p = Projection::Attrs(vec![(2, Projection::Attrs(vec![(0, Projection::All)]))]);
        p.validate(&schema()).unwrap();
        let out = p.apply(&tuple(), &schema());
        assert_eq!(out.attr(0).unwrap().as_int(), Some(0)); // placeholder
        let sub = out.attr(2).unwrap().as_rel().unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[0].attr(0).unwrap().as_link(), Some(Oid(7)));
        assert_eq!(sub[0].attr(1).unwrap().as_str(), Some("")); // placeholder
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let p = Projection::Attrs(vec![(5, Projection::All)]);
        assert!(matches!(
            p.validate(&schema()),
            Err(Nf2Error::BadProjection {
                attr: 5,
                available: 3
            })
        ));
    }

    #[test]
    fn validate_rejects_nested_under_atomic() {
        let p = Projection::Attrs(vec![(0, Projection::Attrs(vec![]))]);
        assert!(p.validate(&schema()).is_err());
    }

    #[test]
    fn byte_ranges_all_is_whole_object() {
        let (bytes, layout) = encode_with_layout(&tuple(), &schema()).unwrap();
        let ranges = Projection::All.byte_ranges(&layout);
        assert_eq!(ranges, vec![0..bytes.len() as u32]);
    }

    #[test]
    fn byte_ranges_projection_is_proper_subset() {
        let (bytes, layout) = encode_with_layout(&tuple(), &schema()).unwrap();
        let p = Projection::Attrs(vec![(0, Projection::All)]);
        let ranges = p.byte_ranges(&layout);
        let covered: u32 = ranges.iter().map(|r| r.end - r.start).sum();
        assert!(covered > 0);
        assert!(
            (covered as usize) < bytes.len(),
            "projection should not cover the whole object ({covered} vs {})",
            bytes.len()
        );
        // Header is included.
        assert_eq!(ranges[0].start, 0);
    }

    #[test]
    fn byte_ranges_nested_skips_unprojected_sub_attr() {
        let (_, layout) = encode_with_layout(&tuple(), &schema()).unwrap();
        let narrow = Projection::Attrs(vec![(2, Projection::Attrs(vec![(0, Projection::All)]))]);
        let wide = Projection::Attrs(vec![(2, Projection::All)]);
        let n: u32 = narrow
            .byte_ranges(&layout)
            .iter()
            .map(|r| r.end - r.start)
            .sum();
        let w: u32 = wide
            .byte_ranges(&layout)
            .iter()
            .map(|r| r.end - r.start)
            .sum();
        assert!(n < w, "narrow {n} should cover fewer bytes than wide {w}");
    }
}
