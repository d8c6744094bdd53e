//! Structure-similarity recall over the decision history.
//!
//! "Which past decisions looked like this one?" — the documentation-
//! service reading of the GKBMS (§3.1): development knowledge is only
//! reusable if a designer facing a decision can retrieve precedents.
//! Exact-match retrieval over names is useless across projects, so
//! recall works on *structural signatures*: the decision class and
//! dimension, the tool, the input/output design-object class
//! multisets, and the discharge shape. Retracted decisions are
//! included deliberately — a withdrawn precedent documents a dead end,
//! which is exactly the knowledge §3.3 wants preserved.

use std::cmp::Ordering;

use crate::decisions::{DecisionDimension, Discharge};
use crate::error::{GkbmsError, GkbmsResult};
use crate::system::{DecisionRecord, Gkbms};

/// A scored recall hit.
#[derive(Debug, Clone, PartialEq)]
pub struct RecallHit {
    /// The matching decision's instance name.
    pub decision: String,
    /// Structural similarity in `(0, 1]`.
    pub score: f64,
    /// Whether the precedent was later retracted (a documented dead
    /// end rather than surviving design knowledge).
    pub retracted: bool,
}

/// The kinds of structural feature a signature weighs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Feature {
    Class,
    Dimension,
    Tool,
    /// Keyed by the input count itself, not an interned name.
    Inputs,
    Output,
    Formal,
    Signed,
}

/// The structural signature of one decision: a weighted feature bag,
/// as `(feature, key) → weight` pairs sorted by `(feature, key)`, where
/// the key is the [`datalog::intern`] id of the feature's name. Class
/// identity weighs heaviest, then dimension and tool, then the class
/// multisets of the objects it consumed and produced.
///
/// Computed once per record, when [`Gkbms::execute`] documents the
/// decision (replay takes the same path), so a RECALL scores by
/// merging two sorted vectors.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Signature(Vec<((Feature, u32), f64)>);

impl Signature {
    /// The signature of `r`, a decision of a class in `dimension`.
    pub(crate) fn of(r: &DecisionRecord, dimension: &DecisionDimension) -> Signature {
        let name = |s: &str| datalog::intern::intern(s).id();
        let mut bag = vec![
            ((Feature::Class, name(&r.class)), 3.0),
            ((Feature::Dimension, name(&dimension.to_string())), 2.0),
        ];
        if let Some(t) = &r.tool {
            bag.push(((Feature::Tool, name(t)), 2.0));
        }
        bag.push(((Feature::Inputs, r.inputs.len() as u32), 1.0));
        for c in &r.output_classes {
            bag.push(((Feature::Output, name(c)), 1.0));
        }
        for d in &r.discharges {
            bag.push(match d {
                Discharge::Formal { obligation } => ((Feature::Formal, name(obligation)), 1.0),
                Discharge::Signature { obligation, .. } => {
                    ((Feature::Signed, name(obligation)), 1.0)
                }
            });
        }
        bag.sort_by_key(|&(k, _)| k);
        // Repeated features (an output class produced twice, …) add up.
        bag.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        Signature(bag)
    }

    /// Weighted Jaccard similarity: Σ min over Σ max of the weights,
    /// a feature missing from one side weighing 0 there.
    fn similarity(&self, other: &Signature) -> f64 {
        let (a, b) = (&self.0, &other.0);
        let (mut i, mut j) = (0, 0);
        let (mut min_sum, mut max_sum) = (0.0f64, 0.0f64);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Equal => {
                    min_sum += a[i].1.min(b[j].1);
                    max_sum += a[i].1.max(b[j].1);
                    i += 1;
                    j += 1;
                }
                Ordering::Less => {
                    max_sum += a[i].1;
                    i += 1;
                }
                Ordering::Greater => {
                    max_sum += b[j].1;
                    j += 1;
                }
            }
        }
        max_sum += a[i..].iter().chain(&b[j..]).map(|&(_, w)| w).sum::<f64>();
        if max_sum == 0.0 {
            0.0
        } else {
            min_sum / max_sum
        }
    }
}

impl Gkbms {
    /// Ranks past decisions by structural similarity with `name` —
    /// same class, dimension, tool, input/output class shape and
    /// discharge shape count toward the score; instance names never
    /// do. Returns at most `limit` hits with nonzero score, best
    /// first; the queried decision itself is excluded. Retracted
    /// precedents are reported with their flag set, not filtered.
    pub fn recall_similar(&self, name: &str, limit: usize) -> GkbmsResult<Vec<RecallHit>> {
        let probe = self
            .record(name)
            .ok_or_else(|| GkbmsError::Unknown(format!("decision `{name}`")))?;
        let mut scored: Vec<(f64, &DecisionRecord)> = self
            .records()
            .iter()
            .filter(|r| r.name != name)
            .map(|r| (probe.signature.similarity(&r.signature), r))
            .filter(|&(score, _)| score > 0.0)
            .collect();
        // Deterministic order: score desc, then name for ties.
        let rank = |a: &(f64, &DecisionRecord), b: &(f64, &DecisionRecord)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.1.name.cmp(&b.1.name))
        };
        if limit < scored.len() {
            scored.select_nth_unstable_by(limit, rank);
            scored.truncate(limit);
        }
        scored.sort_unstable_by(rank);
        let hits = scored
            .into_iter()
            .map(|(score, r)| RecallHit {
                decision: r.name.clone(),
                score,
                retracted: r.retracted,
            })
            .collect();
        obs::counter!(
            "gkbms_recall_queries_total",
            "Structure-similarity recall queries answered"
        )
        .inc();
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{self, SynthConfig};

    fn corpus() -> Gkbms {
        let mut g = Gkbms::new().unwrap();
        synth::generate_into(
            &mut g,
            &SynthConfig {
                seed: 11,
                decisions: 40,
                retraction_rate: 0.15,
                ..SynthConfig::default()
            },
        )
        .unwrap();
        g
    }

    /// The recall this module ran before signatures were cached:
    /// string-keyed bags rebuilt per record and per query, scored by a
    /// hash-map weighted Jaccard, fully sorted. Kept as the oracle.
    mod oracle {
        use super::super::{Gkbms, RecallHit};
        use crate::decisions::Discharge;
        use crate::system::DecisionRecord;
        use std::collections::HashMap;

        fn signature(g: &Gkbms, r: &DecisionRecord) -> HashMap<String, f64> {
            let mut bag: HashMap<String, f64> = HashMap::new();
            let mut add = |k: String, w: f64| *bag.entry(k).or_insert(0.0) += w;
            add(format!("class:{}", r.class), 3.0);
            if let Some(dc) = g.classes.get(&r.class) {
                add(format!("dim:{}", dc.dimension), 2.0);
            }
            if let Some(t) = &r.tool {
                add(format!("tool:{t}"), 2.0);
            }
            add(format!("inputs:{}", r.inputs.len()), 1.0);
            for c in &r.output_classes {
                add(format!("out:{c}"), 1.0);
            }
            for d in &r.discharges {
                let (kind, obligation) = match d {
                    Discharge::Formal { obligation } => ("formal", obligation),
                    Discharge::Signature { obligation, .. } => ("signed", obligation),
                };
                add(format!("sig:{kind}:{obligation}"), 1.0);
            }
            bag
        }

        fn weighted_jaccard(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> f64 {
            let mut min_sum = 0.0;
            let mut max_sum = 0.0;
            for (k, &wa) in a {
                let wb = b.get(k).copied().unwrap_or(0.0);
                min_sum += wa.min(wb);
                max_sum += wa.max(wb);
            }
            for (k, &wb) in b {
                if !a.contains_key(k) {
                    max_sum += wb;
                }
            }
            if max_sum == 0.0 {
                0.0
            } else {
                min_sum / max_sum
            }
        }

        pub fn recall(g: &Gkbms, name: &str, limit: usize) -> Vec<RecallHit> {
            let probe_sig = signature(g, g.record(name).unwrap());
            let mut hits: Vec<RecallHit> = g
                .records()
                .iter()
                .filter(|r| r.name != name)
                .map(|r| RecallHit {
                    decision: r.name.clone(),
                    score: weighted_jaccard(&probe_sig, &signature(g, r)),
                    retracted: r.retracted,
                })
                .filter(|h| h.score > 0.0)
                .collect();
            hits.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.decision.cmp(&b.decision))
            });
            hits.truncate(limit);
            hits
        }
    }

    /// Every record as probe, at several limits: same hits, same
    /// order, same score bits, same retraction flags.
    fn assert_matches_oracle(g: &Gkbms) {
        let key = |hits: Vec<RecallHit>| -> Vec<(String, u64, bool)> {
            hits.into_iter()
                .map(|h| (h.decision, h.score.to_bits(), h.retracted))
                .collect()
        };
        for r in g.records() {
            for limit in [0, 1, 5, usize::MAX] {
                assert_eq!(
                    key(g.recall_similar(&r.name, limit).unwrap()),
                    key(oracle::recall(g, &r.name, limit)),
                    "probe {} limit {limit}",
                    r.name
                );
            }
        }
    }

    #[test]
    fn cached_signatures_match_the_string_keyed_oracle() {
        let cfg = SynthConfig {
            seed: 5,
            decisions: 60,
            retraction_rate: 0.15,
            ..SynthConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("cb-recall-oracle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut g, _) = Gkbms::recover(&dir).unwrap();
        synth::generate_into(&mut g, &cfg).unwrap();
        assert!(g.records().iter().any(|r| r.retracted));
        assert!(g.records().iter().any(|r| !r.discharges.is_empty()));
        assert_matches_oracle(&g);
        let executed = g.records().len();
        drop(g);
        // Recovery replays every execution, which recomputes the
        // signatures on the way in.
        let (g, _) = Gkbms::recover(&dir).unwrap();
        assert_eq!(g.records().len(), executed);
        assert!(g.records().iter().any(|r| r.retracted));
        assert_matches_oracle(&g);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_probe_is_an_error() {
        let g = corpus();
        assert!(g.recall_similar("nope", 5).is_err());
    }

    #[test]
    fn same_class_decisions_rank_first() {
        let g = corpus();
        let probe = g
            .records()
            .iter()
            .find(|r| r.class == synth::names::NORMALIZE)
            .expect("corpus has a normalization")
            .name
            .clone();
        let hits = g.recall_similar(&probe, 5).unwrap();
        assert!(!hits.is_empty());
        assert!(hits.len() <= 5);
        // Best hit shares the decision class.
        let best = g.record(&hits[0].decision).unwrap();
        assert_eq!(best.class, synth::names::NORMALIZE);
        // Scores are in (0, 1], descending.
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        assert!(hits[0].score > 0.0 && hits[0].score <= 1.0);
        // The probe never recalls itself.
        assert!(hits.iter().all(|h| h.decision != probe));
    }

    #[test]
    fn retracted_precedents_are_recalled_and_flagged() {
        let g = corpus();
        let retracted = g
            .records()
            .iter()
            .find(|r| r.retracted)
            .expect("corpus has retractions")
            .name
            .clone();
        // A retracted decision can still be used as a probe...
        let hits = g.recall_similar(&retracted, 10).unwrap();
        assert!(!hits.is_empty());
        // ...and shows up as a flagged hit for a live same-class probe.
        let class = g.record(&retracted).unwrap().class.clone();
        let live = g
            .records()
            .iter()
            .find(|r| r.class == class && !r.retracted && r.name != retracted)
            .map(|r| r.name.clone());
        if let Some(live) = live {
            let hits = g.recall_similar(&live, usize::MAX).unwrap();
            let hit = hits.iter().find(|h| h.decision == retracted);
            assert!(hit.is_some_and(|h| h.retracted));
        }
    }

    #[test]
    fn identical_structure_scores_one() {
        let g = corpus();
        // Two distribute decisions with the same fanout have identical
        // signatures.
        let mut distribs = g
            .records()
            .iter()
            .filter(|r| r.class == synth::names::DISTRIBUTE || r.class == synth::names::MOVE_DOWN);
        let a = distribs.next().expect("mapping decisions exist");
        let twin = g
            .records()
            .iter()
            .find(|r| {
                r.name != a.name && r.class == a.class && r.output_classes == a.output_classes
            })
            .expect("the mix produces structural twins");
        let hits = g.recall_similar(&a.name, usize::MAX).unwrap();
        let hit = hits.iter().find(|h| h.decision == twin.name).unwrap();
        assert!((hit.score - 1.0).abs() < 1e-9, "twin scored {}", hit.score);
    }
}
