//! Request tapes and the answer oracle.
//!
//! A tape is the sequence of navigation roots a client sends. It is drawn
//! from the benchmark's own generator, seeded from `--seed`, so the program
//! under test only ever sees the generated requests. The oracle answers
//! every request from the generated `Station`s alone.

use starfish_core::ObjRef;
use starfish_nf2::station::Station;
use starfish_nf2::Oid;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of `seed`: different streams are unrelated.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// How a tape picks navigation roots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Picker {
    /// Uniform over all objects (queries 2b/3b).
    Uniform,
    /// The shipped `drift-sudden` shape: `pct_hot`% of roots from a
    /// `hot`-object window that jumps `shift` objects every `period`
    /// requests, the rest uniform.
    Drift {
        /// Window size in objects.
        hot: usize,
        /// Share of roots drawn from the window, in percent.
        pct_hot: usize,
        /// Objects the window jumps by.
        shift: usize,
        /// Requests between jumps.
        period: usize,
    },
}

/// The `drift-sudden` shape of the repository's workload catalogue.
pub const DRIFT_SUDDEN: Picker = Picker::Drift {
    hot: 16,
    pct_hot: 90,
    shift: 137,
    period: 60,
};

/// An endless, deterministic stream of roots.
#[derive(Clone, Debug)]
pub struct Tape {
    rng: Rng,
    picker: Picker,
    n: usize,
    t: usize,
}

impl Tape {
    /// The tape of `stream` for a database of `n` objects.
    pub fn new(seed: u64, stream: u64, picker: Picker, n: usize) -> Self {
        Tape {
            rng: Rng::new(seed, stream),
            picker,
            n,
            t: 0,
        }
    }

    /// The next `len` roots (object ordinals).
    pub fn take(&mut self, len: usize) -> Vec<usize> {
        (0..len).map(|_| self.next_root()).collect()
    }

    fn next_root(&mut self) -> usize {
        let t = self.t;
        self.t += 1;
        match self.picker {
            Picker::Uniform => self.rng.below(self.n),
            Picker::Drift {
                hot,
                pct_hot,
                shift,
                period,
            } => {
                let in_hot = self.rng.below(100) < pct_hot;
                if in_hot {
                    let idx = self.rng.below(hot.clamp(1, self.n));
                    ((t / period) * shift + idx) % self.n
                } else {
                    self.rng.below(self.n)
                }
            }
        }
    }
}

/// Expected answers, derived from the generated database.
pub struct Oracle {
    refs: Vec<ObjRef>,
    children: Vec<Vec<ObjRef>>,
    /// Each object's generated `Name`.
    pub names: Vec<String>,
}

impl Oracle {
    /// The oracle of `db`, loaded so that object `i` has OID `i`.
    pub fn new(db: &[Station]) -> Self {
        Oracle {
            refs: db
                .iter()
                .enumerate()
                .map(|(i, s)| ObjRef {
                    oid: Oid(i as u32),
                    key: s.key,
                })
                .collect(),
            children: db
                .iter()
                .map(|s| {
                    s.child_refs()
                        .into_iter()
                        .map(|(key, oid)| ObjRef { oid, key })
                        .collect()
                })
                .collect(),
            names: db.iter().map(|s| s.name.clone()).collect(),
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// The reference to object `ord`.
    pub fn obj(&self, ord: usize) -> ObjRef {
        self.refs[ord]
    }

    /// `children_of(refs)`: every object's children, concatenated in order.
    pub fn children_of(&self, refs: &[ObjRef]) -> Vec<ObjRef> {
        refs.iter()
            .flat_map(|r| self.children[r.oid.0 as usize].iter().copied())
            .collect()
    }

    /// The grand-children a request rooted at `root` navigates to.
    pub fn grand_children(&self, root: usize) -> Vec<ObjRef> {
        self.children_of(&self.children_of(&[self.obj(root)]))
    }
}

/// The 100-byte `Name` an update writes: it names its client, episode and
/// request so any value read back can be traced to the request that wrote
/// it. Stored names are 100 bytes and updates must keep the length.
pub fn patch_name(client: usize, episode: usize, j: usize) -> String {
    let mut s = format!("c{client}-e{episode}-j{j}-");
    s.extend(std::iter::repeat_n('u', 100 - s.len()));
    s
}

/// Parses a [`patch_name`] back into `(client, episode, j)`.
pub fn parse_patch(name: &str) -> Option<(usize, usize, usize)> {
    let mut it = name.strip_prefix('c')?.splitn(4, '-');
    let c = it.next()?.parse().ok()?;
    let e = it.next()?.strip_prefix('e')?.parse().ok()?;
    let j = it.next()?.strip_prefix('j')?.parse().ok()?;
    Some((c, e, j))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tapes_repeat_for_a_seed_and_differ_across_seeds() {
        let a = Tape::new(7, 1, DRIFT_SUDDEN, 1500).take(500);
        assert_eq!(a, Tape::new(7, 1, DRIFT_SUDDEN, 1500).take(500));
        assert_ne!(a, Tape::new(8, 1, DRIFT_SUDDEN, 1500).take(500));
        assert!(a.iter().all(|&r| r < 1500));
    }

    #[test]
    fn drift_window_jumps_every_period() {
        let roots = Tape::new(3, 0, DRIFT_SUDDEN, 1500).take(240);
        let in_window = |t: usize, r: usize| {
            let start = (t / 60) * 137 % 1500;
            (r + 1500 - start) % 1500 < 16
        };
        let hot = roots
            .iter()
            .enumerate()
            .filter(|&(t, &r)| in_window(t, r))
            .count();
        assert!(hot > 180, "only {hot} of 240 roots in the hot window");
    }

    #[test]
    fn patch_names_are_100_bytes_and_parse_back() {
        let n = patch_name(1, 12, 34567);
        assert_eq!(n.len(), 100);
        assert_eq!(parse_patch(&n), Some((1, 12, 34567)));
        assert_eq!(parse_patch("Station-3-xxxx"), None);
    }
}
