//! Community detection by synchronous label propagation (DBLP workload).
//!
//! Each vertex adopts the most frequent label among its in-neighbours
//! (ties broken toward the smallest label, for determinism). On the
//! symmetric community graphs of the evaluation, labels flood each dense
//! community and the computation goes quiet.

use imitator_engine::{Degrees, VertexProgram};
use imitator_graph::Vid;

/// The label-propagation community-detection program.
///
/// The accumulator is a tiny sorted histogram of neighbour labels — cheap
/// to merge and deterministic regardless of merge order.
///
/// # Examples
///
/// ```
/// use imitator_algos::CommunityDetection;
/// use imitator_engine::VertexProgram;
/// use imitator_graph::Vid;
///
/// let cd = CommunityDetection;
/// let h = cd.combine(vec![(7, 1)], vec![(3, 2), (7, 1)]);
/// assert_eq!(h, vec![(3, 2), (7, 2)]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommunityDetection;

impl VertexProgram for CommunityDetection {
    /// The vertex's community label.
    type Value = u32;
    /// Sorted `(label, count)` histogram.
    type Accum = Vec<(u32, u32)>;

    fn init(&self, vid: Vid, _degrees: &Degrees) -> u32 {
        vid.raw()
    }

    fn gather(&self, _weight: f32, src: &u32) -> Vec<(u32, u32)> {
        vec![(*src, 1)]
    }

    fn combine(&self, a: Vec<(u32, u32)>, b: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        // Merge two sorted histograms.
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }

    fn apply(&self, _vid: Vid, old: &u32, acc: Option<Vec<(u32, u32)>>, _d: &Degrees) -> u32 {
        match acc {
            None => *old,
            Some(hist) => {
                // Most frequent label; ties toward the smallest label (the
                // histogram is sorted by label, so the first maximum wins).
                hist.iter()
                    .max_by(|x, y| x.1.cmp(&y.1).then(y.0.cmp(&x.0)))
                    .map_or(*old, |&(label, _)| label)
            }
        }
    }

    fn scatter(&self, _vid: Vid, old: &u32, new: &u32) -> bool {
        old != new
    }

    /// The adopted label is a pure function of in-neighbour labels.
    fn selfish_compatible(&self) -> bool {
        true
    }
}

/// Sequential synchronous label-propagation reference.
pub fn reference(g: &imitator_graph::Graph, max_iters: usize) -> Vec<u32> {
    let n = g.num_vertices();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    for _ in 0..max_iters {
        let mut hist: Vec<std::collections::BTreeMap<u32, u32>> = vec![Default::default(); n];
        for e in g.edges() {
            *hist[e.dst.index()]
                .entry(labels[e.src.index()])
                .or_insert(0) += 1;
        }
        let mut changed = false;
        let next: Vec<u32> = hist
            .iter()
            .zip(&labels)
            .map(|(h, &old)| {
                h.iter()
                    .max_by(|x, y| x.1.cmp(y.1).then(y.0.cmp(x.0)))
                    .map_or(old, |(&l, _)| l)
            })
            .collect();
        for (a, b) in labels.iter().zip(&next) {
            if a != b {
                changed = true;
            }
        }
        labels = next;
        if !changed {
            break;
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use imitator_graph::gen;

    #[test]
    fn combine_merges_sorted_histograms() {
        let cd = CommunityDetection;
        let merged = cd.combine(vec![(1, 2), (5, 1)], vec![(1, 1), (3, 4)]);
        assert_eq!(merged, vec![(1, 3), (3, 4), (5, 1)]);
    }

    #[test]
    fn apply_picks_majority_then_smallest() {
        let cd = CommunityDetection;
        let g = gen::from_pairs(1, &[]);
        let d = Degrees::of(&g);
        assert_eq!(
            cd.apply(Vid::new(0), &9, Some(vec![(2, 3), (7, 3), (8, 1)]), &d),
            2
        );
        assert_eq!(cd.apply(Vid::new(0), &9, Some(vec![(7, 5), (8, 1)]), &d), 7);
        assert_eq!(cd.apply(Vid::new(0), &9, None, &d), 9);
    }

    #[test]
    fn reference_floods_a_clique() {
        // Complete bidirectional triangle + attached pendant: all adopt 0.
        let g = gen::from_pairs(
            4,
            &[
                (0, 1),
                (1, 0),
                (0, 2),
                (2, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
            ],
        );
        let labels = reference(&g, 20);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1], 0);
        assert_eq!(labels[2], 0);
    }

    #[test]
    fn communities_stay_separate() {
        // Two disjoint bidirectional pairs.
        let g = gen::from_pairs(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let labels = reference(&g, 10);
        assert_ne!(labels[0], labels[2]);
    }
}
