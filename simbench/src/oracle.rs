//! The reference computation every service answer is checked against.
//!
//! Written from the paper's definitions and the AQL documentation, not
//! from `asterix-simfn`, and deliberately naive: tokenize, compare every
//! pair, keep what satisfies the predicate.
//!
//! * `word-tokens(s)`: the maximal runs of alphanumeric characters of `s`,
//!   lowercased, duplicates dropped (Jaccard uses set semantics).
//! * `similarity-jaccard(a, b)`: |a ∩ b| / |a ∪ b|; two empty sets are
//!   identical, so their similarity is 1.
//! * `edit-distance(a, b)`: Levenshtein distance over Unicode scalar
//!   values, case-sensitive.
//!
//! The T-occurrence corner case (§2.2, Fig 7) is a property of the index
//! plan, not of the predicate: an edit-distance probe whose bound
//! `T = |grams(q)| − k·n` is at most zero must still return every record
//! within distance `k`, which the plan achieves by reverting to a scan.

use std::collections::BTreeSet;

/// Distinct lowercase alphanumeric word tokens.
pub fn word_tokens(s: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut cur = String::new();
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            out.insert(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.insert(cur);
    }
    out
}

/// Set Jaccard similarity.
pub fn jaccard<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    inter as f64 / (a.len() + b.len() - inter) as f64
}

/// Levenshtein distance with the textbook full dynamic program.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1; b.len() + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        prev = cur;
    }
    prev[b.len()]
}

/// `T = |grams(q)| − k·n` for an `n`-gram edit-distance probe, where
/// a string of `L ≥ n` characters has `L − n + 1` grams.
pub fn edit_distance_t(probe: &str, k: usize, n: usize) -> i64 {
    let len = probe.chars().count() as i64;
    let grams = if len >= n as i64 {
        len - n as i64 + 1
    } else {
        len.min(1)
    };
    grams - (k * n) as i64
}

/// One record as the oracle sees it: an id and one text field, with the
/// field's token set computed once.
#[derive(Clone, Debug)]
pub struct Doc {
    pub id: i64,
    pub text: String,
    /// Characters (Unicode scalar values) in `text`.
    pub chars: usize,
    pub tokens: BTreeSet<String>,
}

impl Doc {
    pub fn new(id: i64, text: &str) -> Doc {
        Doc {
            id,
            text: text.to_string(),
            chars: text.chars().count(),
            tokens: word_tokens(text),
        }
    }
}

/// Ids of `docs` whose tokens are at least `delta`-similar to `probe`'s.
pub fn jaccard_select(docs: &[Doc], probe: &str, delta: f64) -> Vec<i64> {
    let q = word_tokens(probe);
    let mut ids: Vec<i64> = docs
        .iter()
        .filter(|d| jaccard(&d.tokens, &q) >= delta)
        .map(|d| d.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Ids of `docs` whose text is within edit distance `k` of `probe`.
pub fn edit_select(docs: &[Doc], probe: &str, k: usize) -> Vec<i64> {
    let len = probe.chars().count();
    let mut ids: Vec<i64> = docs
        .iter()
        // Strings whose lengths differ by more than k are farther apart
        // than k; skipping them saves the table, not a comparison.
        .filter(|d| d.chars.abs_diff(len) <= k && levenshtein(&d.text, probe) <= k)
        .map(|d| d.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Naive nested-loop join: every `(o, i)` with `o` in `outer`, `i` in
/// `inner` and the predicate true, sorted.
pub fn nested_loop_join(
    outer: &[Doc],
    inner: &[Doc],
    pred: impl Fn(&Doc, &Doc) -> bool,
) -> Vec<(i64, i64)> {
    let mut pairs = Vec::new();
    for o in outer {
        for i in inner {
            if pred(o, i) {
                pairs.push((o.id, i.id));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(words: &[&str]) -> BTreeSet<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn paper_examples() {
        // §2.1: J({Good, Product, Value}, {Nice, Product}) = 1/4.
        let a = word_tokens("Good Product Value");
        let b = word_tokens("Nice product");
        assert!((jaccard(&a, &b) - 0.25).abs() < 1e-12);
        // §2.1: ed("james", "jamie") = 2.
        assert_eq!(levenshtein("james", "jamie"), 2);
    }

    #[test]
    fn tokenizer_lowercases_splits_and_dedups() {
        assert_eq!(
            word_tokens("Better, BETTER than-I expected!"),
            set(&["better", "expected", "i", "than"])
        );
        assert!(word_tokens("").is_empty());
        assert!(word_tokens(" ,;-- ").is_empty());
    }

    #[test]
    fn empty_token_sets() {
        let empty = BTreeSet::<String>::new();
        assert_eq!(jaccard(&empty, &empty), 1.0);
        assert_eq!(jaccard(&empty, &set(&["a"])), 0.0);
        // A punctuation-only probe has no tokens: it matches exactly the
        // records whose field has none either, at any threshold.
        let docs = vec![Doc::new(1, "!!"), Doc::new(2, "word"), Doc::new(3, "")];
        assert_eq!(jaccard_select(&docs, "...", 0.8), vec![1, 3]);
    }

    #[test]
    fn multibyte_characters() {
        // Distance counts characters, not bytes.
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("漢字", "漢"), 1);
        assert_eq!(levenshtein("naïve", "naive"), 1);
        assert_eq!(word_tokens("Ünïcode Straße"), set(&["straße", "ünïcode"]));
        assert_eq!(edit_distance_t("漢字かな", 1, 2), 3 - 2);
    }

    #[test]
    fn corner_case_probes_have_no_positive_bound() {
        // 2-grams, k = 2: a probe of up to 5 characters has T <= 0.
        assert!(edit_distance_t("abcde", 2, 2) <= 0);
        assert!(edit_distance_t("abcdef", 2, 2) > 0);
        assert!(edit_distance_t("ab", 1, 2) <= 0);
        // The predicate itself is unaffected: short probes still match
        // records within distance k, which an index probe alone would miss.
        let docs = vec![Doc::new(1, "ann"), Doc::new(2, "anna"), Doc::new(3, "bob")];
        assert_eq!(edit_select(&docs, "an", 2), vec![1, 2]);
        assert_eq!(edit_select(&docs, "", 3), vec![1, 3]);
    }

    #[test]
    fn levenshtein_is_a_metric_on_samples() {
        let words = ["", "a", "ab", "kitten", "sitting", "saturday", "sunday"];
        for a in words {
            assert_eq!(levenshtein(a, a), 0);
            for b in words {
                assert_eq!(levenshtein(a, b), levenshtein(b, a));
                for c in words {
                    assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
                }
            }
        }
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("saturday", "sunday"), 3);
    }

    #[test]
    fn nested_loop_join_orders_pairs() {
        let docs = vec![Doc::new(3, "a b"), Doc::new(1, "a b"), Doc::new(2, "c")];
        let pairs = nested_loop_join(&docs, &docs, |o, i| {
            o.id < i.id && jaccard(&o.tokens, &i.tokens) >= 0.5
        });
        assert_eq!(pairs, vec![(1, 3)]);
        let all = nested_loop_join(&docs, &docs, |o, i| jaccard(&o.tokens, &i.tokens) >= 0.5);
        assert_eq!(all, vec![(1, 1), (1, 3), (2, 2), (3, 1), (3, 3)]);
    }
}
