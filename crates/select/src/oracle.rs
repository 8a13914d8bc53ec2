//! A unified selector over the per-distance indexes.

use crate::edit::EditIndex;
use crate::euclid::VpTree;
use crate::hamming::HammingIndex;
use crate::jaccard::JaccardIndex;
use cardest_data::{Dataset, DistanceKind, Record};

/// An exact similarity-selection algorithm bound to a dataset.
pub enum Selector<'a> {
    Hamming {
        dataset: &'a Dataset,
        index: HammingIndex,
    },
    Edit {
        dataset: &'a Dataset,
        index: EditIndex,
    },
    Jaccard {
        dataset: &'a Dataset,
        index: JaccardIndex,
    },
    Euclidean {
        dataset: &'a Dataset,
        index: VpTree,
    },
}

/// Builds the appropriate index for the dataset's distance function.
pub fn build_selector(dataset: &Dataset) -> Selector<'_> {
    match dataset.kind {
        DistanceKind::Hamming => {
            let dim = dataset.records.first().map_or(1, |r| r.as_bits().len());
            Selector::Hamming {
                dataset,
                index: HammingIndex::build(dataset, HammingIndex::default_parts(dim)),
            }
        }
        DistanceKind::Edit => Selector::Edit {
            dataset,
            index: EditIndex::build(dataset),
        },
        DistanceKind::Jaccard => Selector::Jaccard {
            dataset,
            index: JaccardIndex::build(dataset, dataset.theta_max),
        },
        DistanceKind::Euclidean => Selector::Euclidean {
            dataset,
            index: VpTree::build(dataset, 0xCAFE),
        },
    }
}

impl Selector<'_> {
    /// Ids of all records within `theta` of `query`, sorted.
    pub fn select(&self, query: &Record, theta: f64) -> Vec<u32> {
        match self {
            Selector::Hamming { dataset, index } => index.select(dataset, query, theta),
            Selector::Edit { dataset, index } => index.select(dataset, query, theta),
            Selector::Jaccard { dataset, index } => index.select(dataset, query, theta),
            Selector::Euclidean { dataset, index } => index.select(dataset, query, theta),
        }
    }

    /// Exact cardinality of the selection.
    pub fn count(&self, query: &Record, theta: f64) -> usize {
        self.select(query, theta).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::synth::default_suite;

    #[test]
    fn selector_dispatch_is_exact_for_all_kinds() {
        for ds in default_suite(120, 21) {
            let sel = build_selector(&ds);
            let q = ds.records[3].clone();
            for frac in [0.0, 0.5, 1.0] {
                let theta = ds.theta_max * frac;
                assert_eq!(
                    sel.count(&q, theta),
                    ds.cardinality_scan(&q, theta),
                    "{} θ={theta}",
                    ds.name
                );
            }
        }
    }
}
