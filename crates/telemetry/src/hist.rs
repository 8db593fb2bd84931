//! Log-bucketed latency histogram and a plain counter.

use std::time::Duration;

use serde::{Deserialize, Error, Serialize, Value};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantile error at
/// `2^-SUB_BITS` (6.25 %).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Number of buckets needed to cover the full `u64` range: values below
/// `2 * SUB` get exact width-1 buckets, every octave above contributes
/// `SUB` buckets, up to the octave of `u64::MAX`.
const BUCKETS: usize = (((64 - SUB_BITS) as usize) << SUB_BITS) + SUB;

/// Index of the bucket covering `v` (HdrHistogram-style log-linear layout).
fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub
}

/// Largest value falling into bucket `i` (inverse of [`bucket_index`]).
fn bucket_upper(i: usize) -> u64 {
    if i < 2 * SUB {
        return i as u64;
    }
    let octave = i >> SUB_BITS;
    let sub = (i & (SUB - 1)) as u64;
    let base = 1u64 << (octave + SUB_BITS as usize - 1);
    let width = base >> SUB_BITS;
    // Grouped so the top bucket (`base = 1 << 63`, `sub = 15`) lands exactly
    // on `u64::MAX` without overflowing.
    base + ((sub + 1) * width - 1)
}

/// A fixed-size log-bucketed histogram of `u64` samples (nanoseconds by
/// convention), with ≤ 6.25 % relative quantile error, O(1) record, and
/// exact `count`/`sum`/`max`.
///
/// Buckets are width 1 up to 31 and grow geometrically above, so a single
/// histogram spans nanoseconds to centuries. Histograms merge losslessly
/// ([`Histogram::merge`]), which is how multi-run reports aggregate.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Records a [`Duration`] as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`): an upper bound on the
    /// sample of rank `ceil(q · count)` that is at most one bucket width
    /// (≤ 6.25 %) above it, and never above the exact maximum. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds every sample of `other` into `self` (lossless: bucket layouts
    /// are identical).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish()
    }
}

// Hand-written (sparse) serialisation: the dense bucket array is almost all
// zeros, so the wire form is a list of `[index, count]` pairs.
impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Value::Seq(vec![Value::U64(i as u64), Value::U64(c)]))
            .collect();
        Value::Map(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("sum".to_string(), Value::U64(self.sum)),
            ("max".to_string(), Value::U64(self.max)),
            ("buckets".to_string(), Value::Seq(buckets)),
        ])
    }
}

impl Deserialize for Histogram {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| Error::custom(format!("histogram: missing `{k}`")))
        };
        let mut h = Histogram::new();
        h.count = field("count")?
            .as_u64()
            .ok_or_else(|| Error::custom("histogram: count"))?;
        h.sum = field("sum")?
            .as_u64()
            .ok_or_else(|| Error::custom("histogram: sum"))?;
        h.max = field("max")?
            .as_u64()
            .ok_or_else(|| Error::custom("histogram: max"))?;
        let buckets = field("buckets")?
            .as_seq()
            .ok_or_else(|| Error::custom("histogram: buckets"))?;
        for pair in buckets {
            let pair = pair
                .as_seq()
                .ok_or_else(|| Error::custom("histogram: bucket pair"))?;
            let (Some(i), Some(c)) = (
                pair.first().and_then(Value::as_u64),
                pair.get(1).and_then(Value::as_u64),
            ) else {
                return Err(Error::custom("histogram: bucket pair shape"));
            };
            let i = usize::try_from(i)
                .ok()
                .filter(|&i| i < BUCKETS)
                .ok_or_else(|| Error::custom("histogram: bucket index out of range"))?;
            h.counts[i] = c;
        }
        Ok(h)
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    n: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.n += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.n += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.n
    }

    /// Adds another counter's value (for multi-run aggregation).
    pub fn merge(&mut self, other: &Counter) {
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every value maps to a bucket whose bounds contain it, and bucket
        // indices never decrease as values grow.
        let mut prev = 0usize;
        for v in (0u64..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "v={v} index={i}");
            assert!(bucket_upper(i) >= v, "v={v} upper={}", bucket_upper(i));
            assert!(i >= prev || v < 4096, "index decreased at {v}");
            if v < 4096 {
                prev = i;
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 7, 12, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 30);
        assert_eq!(h.quantile(0.0), 3);
        assert_eq!(h.p50(), 7);
        assert_eq!(h.quantile(1.0), 30);
    }

    #[test]
    fn quantile_bounds_large_values() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1_000);
        }
        let p50 = h.p50();
        assert!((500_000..=532_000).contains(&p50), "p50={p50}");
        let p99 = h.p99();
        assert!((990_000..=1_053_000).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn merge_equals_recording_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..500u64 {
            let x = v * v % 7919;
            if v % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    fn serde_round_trip_preserves_quantiles() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 17, 100, 100, 5_000, 1 << 40] {
            h.record(v);
        }
        let json = serde::json::to_string(&h);
        let back: Histogram = serde::json::from_str(&json).unwrap();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        assert_eq!(back.max(), h.max());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(back.quantile(q), h.quantile(q));
        }
    }

    #[test]
    fn counter_counts_and_merges() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        let mut d = Counter::new();
        d.add(10);
        c.merge(&d);
        assert_eq!(c.get(), 15);
        let back: Counter = serde::json::from_str(&serde::json::to_string(&c)).unwrap();
        assert_eq!(back, c);
    }
}
