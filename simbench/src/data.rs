//! The benchmark's inputs, all made from `--seed`: the records each
//! workload loads or feeds, the probes its queries use, and the NDJSON the
//! client sends. `asterix-datagen` generates the records; everything else
//! here is the benchmark's own.

use crate::json::quote;
use crate::oracle::Doc;
use asterix_adm::Value;

/// A small deterministic generator (SplitMix64) for probe and query
/// choices, so the inputs depend on the seed alone.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// An AmazonReview-like record in the fields the benchmark uses.
#[derive(Clone, Debug)]
pub struct Review {
    pub id: i64,
    pub name: String,
    pub summary: String,
    pub score: i64,
}

/// A Reddit-like record.
#[derive(Clone, Debug)]
pub struct Post {
    pub id: i64,
    pub author: String,
    pub title: String,
}

fn text(v: &Value, field: &str) -> String {
    v.field(field)
        .as_str()
        .expect("generated records carry string fields")
        .to_string()
}

fn int(v: &Value, field: &str) -> i64 {
    v.field(field)
        .as_i64()
        .expect("generated records carry integer fields")
}

/// `n` AmazonReview-like records; the first `m` of `reviews(n, s)` equal
/// `reviews(m, s)`.
pub fn reviews(n: usize, seed: u64) -> Vec<Review> {
    asterix_datagen::amazon_reviews(n, seed)
        .iter()
        .map(|v| Review {
            id: int(v, "id"),
            name: text(v, "reviewerName"),
            summary: text(v, "summary"),
            score: int(v, "score"),
        })
        .collect()
}

pub fn posts(n: usize, seed: u64) -> Vec<Post> {
    asterix_datagen::reddit_submissions(n, seed)
        .iter()
        .map(|v| Post {
            id: int(v, "id"),
            author: text(v, "author"),
            title: text(v, "title"),
        })
        .collect()
}

impl Review {
    pub fn ndjson(&self) -> String {
        format!(
            "{{\"id\": {}, \"reviewerName\": {}, \"summary\": {}, \"score\": {}}}",
            self.id,
            quote(&self.name),
            quote(&self.summary),
            self.score
        )
    }
}

impl Post {
    pub fn ndjson(&self) -> String {
        format!(
            "{{\"id\": {}, \"author\": {}, \"title\": {}}}",
            self.id,
            quote(&self.author),
            quote(&self.title)
        )
    }
}

pub fn summary_docs(rs: &[Review]) -> Vec<Doc> {
    rs.iter().map(|r| Doc::new(r.id, &r.summary)).collect()
}

pub fn name_docs(rs: &[Review]) -> Vec<Doc> {
    rs.iter().map(|r| Doc::new(r.id, &r.name)).collect()
}

pub fn title_docs(ps: &[Post]) -> Vec<Doc> {
    ps.iter().map(|p| Doc::new(p.id, &p.title)).collect()
}

/// Summaries Jaccard probes are drawn from: 3 to 5 distinct tokens, as
/// the paper's selection experiments fix the probe's token count (§6.3).
/// A one-word probe would match every record sharing that word and turn
/// a light selection into a bulk export.
pub fn jaccard_probe_column(rs: &[Review]) -> Vec<&str> {
    rs.iter()
        .map(|r| r.summary.as_str())
        .filter(|s| (3..=5).contains(&crate::oracle::word_tokens(s).len()))
        .collect()
}

/// Names edit-distance probes are drawn from: at least 7 characters, so
/// a k ≤ 2 probe keeps a positive T-occurrence bound and stays indexed;
/// corner-case probes are cut from these names on purpose.
pub fn edit_probe_column(rs: &[Review]) -> Vec<&str> {
    rs.iter()
        .map(|r| r.name.as_str())
        .filter(|s| s.chars().count() >= 7)
        .collect()
}

/// True when `s` can sit inside a single-quoted AQL literal as is.
pub fn literal_safe(s: &str) -> bool {
    !s.contains('\'') && !s.contains('\\')
}

/// Probes drawn from the data as in §6.3: with probability `hot_share`
/// one of a fixed hot set of `hot` values (so it repeats), otherwise a
/// fresh draw from the whole column (a long tail that rarely repeats).
pub struct ProbeSource {
    column: Vec<String>,
    hot: Vec<String>,
    hot_share: f64,
}

/// Draws before a probe filter is declared unsatisfiable.
const MAX_DRAWS: usize = 100_000;

impl ProbeSource {
    /// A source over `column`; `accept` decides whether a drawn value may
    /// serve as a probe (values that cannot sit in an AQL literal never
    /// do).
    pub fn new(
        column: Vec<&str>,
        hot: usize,
        hot_share: f64,
        rng: &mut Rng,
        accept: &mut dyn FnMut(&str) -> bool,
    ) -> ProbeSource {
        let column = column
            .into_iter()
            .filter(|v| literal_safe(v))
            .map(str::to_string)
            .collect();
        let mut src = ProbeSource {
            column,
            hot: Vec::new(),
            hot_share,
        };
        src.hot = (0..hot).map(|_| src.fresh(rng, accept)).collect();
        src
    }

    pub fn next(&self, rng: &mut Rng, accept: &mut dyn FnMut(&str) -> bool) -> String {
        if rng.chance(self.hot_share) {
            self.hot[rng.below(self.hot.len())].clone()
        } else {
            self.fresh(rng, accept)
        }
    }

    pub fn hot(&self) -> &[String] {
        &self.hot
    }

    /// A fresh draw from the whole column, never from the hot set.
    pub fn fresh(&self, rng: &mut Rng, accept: &mut dyn FnMut(&str) -> bool) -> String {
        for _ in 0..MAX_DRAWS {
            let v = &self.column[rng.below(self.column.len())];
            if accept(v) {
                return v.clone();
            }
        }
        panic!("no value of the probe column passes the probe filter");
    }
}

/// Split NDJSON lines into request bodies of `per` records.
pub fn batches(lines: &[String], per: usize) -> Vec<String> {
    lines
        .chunks(per)
        .map(|c| {
            let mut body = c.join("\n");
            body.push('\n');
            body
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        let a = reviews(300, 5);
        let b = reviews(300, 5);
        assert_eq!(a.len(), 300);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.summary == y.summary && x.name == y.name));
        let prefix = reviews(100, 5);
        assert!(prefix.iter().zip(&a).all(|(x, y)| x.summary == y.summary));
        let mut r1 = Rng::new(9);
        let mut r2 = Rng::new(9);
        assert!((0..100).all(|_| r1.next_u64() == r2.next_u64()));
    }

    #[test]
    fn ndjson_parses_back() {
        let r = &reviews(3, 1)[2];
        let v = crate::json::parse(&r.ndjson()).unwrap();
        assert_eq!(v.get("summary").as_str(), Some(r.summary.as_str()));
        assert_eq!(v.get("id").as_i64(), Some(r.id));
    }
}
