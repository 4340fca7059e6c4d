//! A C4.5-style decision tree: gain-ratio splits, binary thresholds on
//! numeric attributes, multiway splits on nominal attributes, missing
//! values routed to the most populated branch.
//!
//! Split search is columnar. Each numeric attribute is sorted once per
//! fit, and every node derives its sorted value lists by filtering its
//! parent's, so no node re-sorts. Class counts accumulate as exact
//! integers, so every entropy and split-info term is a function of two
//! integers; a `SplitMemo` computes each such term once, with the same
//! expression, and serves it by its integer arguments afterwards (terms
//! with a denominator above the memo's cap are always computed). A
//! random forest lends one memo to all of its trees.

use super::Classifier;
use crate::error::{MiningError, Result};
use crate::instances::{AttrKind, InstancesView};

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        class: usize,
    },
    NumericSplit {
        attribute: usize,
        threshold: f64,
        /// Branch for missing values (index into `children`: 0 = left).
        missing_to: usize,
        children: Vec<Node>, // exactly [left (<=), right (>)]
    },
    NominalSplit {
        attribute: usize,
        missing_to: usize,
        /// One child per category (same order as the dictionary).
        children: Vec<Node>,
        /// Fallback class for unseen categories.
        default: usize,
    },
}

impl Node {
    fn size(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::NumericSplit { children, .. } | Node::NominalSplit { children, .. } => {
                1 + children.iter().map(Node::size).sum::<usize>()
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::NumericSplit { children, .. } | Node::NominalSplit { children, .. } => {
                1 + children.iter().map(Node::depth).max().unwrap_or(0)
            }
        }
    }
}

/// The decision-tree classifier.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// Maximum depth of the tree.
    pub max_depth: usize,
    /// Minimum number of rows in a leaf.
    pub min_leaf: usize,
    /// Restrict split search to these attribute indices (used by the
    /// random forest for feature subsampling). `None` = all attributes.
    pub feature_subset: Option<Vec<usize>>,
    root: Option<Node>,
}

/// Largest denominator a forest's memo stores. The trees of one forest
/// fit bootstrap samples of one size, so every denominator recurs in every
/// tree. Each of the memo's two tables then holds at most about 512²/2
/// values (1 MiB), however large the training set; terms with a larger
/// denominator are computed directly.
const FOREST_MEMO_MAX_TOTAL: usize = 512;

/// Largest denominator the memo of a single tree fit stores. In one tree
/// a large denominator occurs only at the few nodes near the root, where
/// its terms are seldom met twice, so filling its rows would cost more
/// than the lookups save.
const TREE_MEMO_MAX_TOTAL: usize = 128;

/// `-p·log2 p` for `p = c / t`: one term of an entropy.
fn plogp(c: usize, t: usize) -> f64 {
    let p = c as f64 / t as f64;
    -p * p.log2()
}

/// The split information of a binary split that sends `left_n` of `n`
/// present rows left.
fn binary_split_info(left_n: usize, n: usize) -> f64 {
    let p_l = left_n as f64 / n as f64;
    -p_l * p_l.log2() - (1.0 - p_l) * (1.0 - p_l).log2()
}

/// Memoised split-search terms, keyed by their exact integer arguments.
///
/// A slot is filled on first use by the same expression the direct path
/// evaluates ([`plogp`], [`binary_split_info`]), so a lookup returns the
/// very bits a recomputation would. Rows are allocated per denominator on
/// first use, and denominators above `max_total` bypass the tables, so
/// memory stays bounded by a constant. NaN marks an empty slot: every
/// stored term is finite, since `0 < c ≤ t` and `0 < left_n < n`.
pub(crate) struct SplitMemo {
    /// [`TREE_MEMO_MAX_TOTAL`] or [`FOREST_MEMO_MAX_TOTAL`].
    max_total: usize,
    /// `plogp[t][c]`.
    plogp: Vec<Vec<f64>>,
    /// `split_info[n][left_n]`.
    split_info: Vec<Vec<f64>>,
}

/// Row `t` of a memo table, allocated on first use; `None` above
/// `max_total`.
fn memo_row(table: &mut Vec<Vec<f64>>, t: usize, max_total: usize) -> Option<&mut [f64]> {
    if t > max_total {
        return None;
    }
    if table.len() <= t {
        table.resize_with(t + 1, Vec::new);
    }
    let row = &mut table[t];
    if row.is_empty() {
        *row = vec![f64::NAN; t + 1];
    }
    Some(row)
}

/// The value in `slot`, computed by `f` if the slot is still empty.
fn cached(slot: &mut f64, f: impl FnOnce() -> f64) -> f64 {
    if slot.is_nan() {
        *slot = f();
    }
    *slot
}

impl SplitMemo {
    fn with_max_total(max_total: usize) -> SplitMemo {
        SplitMemo {
            max_total,
            plogp: Vec::new(),
            split_info: Vec::new(),
        }
    }

    /// The memo a single tree fit owns.
    fn for_tree() -> SplitMemo {
        SplitMemo::with_max_total(TREE_MEMO_MAX_TOTAL)
    }

    /// The memo a forest lends to all of its trees.
    pub(crate) fn for_forest() -> SplitMemo {
        SplitMemo::with_max_total(FOREST_MEMO_MAX_TOTAL)
    }

    /// Entropy of class counts that sum to `total`: the [`plogp`] terms of
    /// the non-zero counts, summed in order.
    fn entropy(&mut self, counts: impl Iterator<Item = usize>, total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let counts = counts.filter(|&c| c > 0);
        match memo_row(&mut self.plogp, total, self.max_total) {
            Some(row) => counts
                .map(|c| cached(&mut row[c], || plogp(c, total)))
                .sum(),
            None => counts.map(|c| plogp(c, total)).sum(),
        }
    }

    /// [`binary_split_info`]`(left_n, n)`.
    fn split_info(&mut self, left_n: usize, n: usize) -> f64 {
        match memo_row(&mut self.split_info, n, self.max_total) {
            Some(row) => cached(&mut row[left_n], || binary_split_info(left_n, n)),
            None => binary_split_info(left_n, n),
        }
    }
}

/// Per-fit state threaded through the recursive build.
///
/// Each numeric attribute is sorted once per fit; every node then derives
/// its own sorted value lists by filtering its parent's lists with a
/// membership stamp (a stable filter preserves sort order), so no node
/// ever re-sorts and per-level work shrinks with the partitions. Sort
/// order is `(value, row)` under `total_cmp`. Tie order among equal
/// values never influences the chosen split: equal values admit no
/// threshold between them, and class counts accumulate as exact
/// integers. Every present value is finite, since
/// [`Instances`](crate::instances::Instances) stores a NaN or ±∞ cell
/// as missing.
struct FitCtx<'m> {
    /// Label cache, one slot per view row.
    labels: Vec<Option<usize>>,
    /// Node-membership stamps (one slot per view row; bumping the
    /// counter invalidates the previous node's marks without an O(n)
    /// clear).
    stamp: Vec<u32>,
    counter: u32,
    /// Scratch: the node's `(value, label)` pairs in ascending value
    /// order (reused across attributes and nodes).
    vals: Vec<(f64, Option<usize>)>,
    /// Scratch for the local-sort fallback path.
    sort_buf: Vec<(f64, usize)>,
    /// Scratch class-count accumulators.
    total_counts: Vec<usize>,
    left_counts: Vec<usize>,
    /// Entropy and split-info terms (owned by the fit, or lent by a
    /// forest).
    memo: &'m mut SplitMemo,
}

struct Split {
    attribute: usize,
    /// `Some(threshold)` for numeric, `None` for nominal.
    threshold: Option<f64>,
    /// Row partitions (numeric: [left, right]; nominal: per category).
    partitions: Vec<Vec<usize>>,
    missing_rows: Vec<usize>,
}

impl DecisionTree {
    /// Create an untrained tree.
    pub fn new(max_depth: usize, min_leaf: usize) -> Self {
        DecisionTree {
            max_depth: max_depth.max(1),
            min_leaf: min_leaf.max(1),
            feature_subset: None,
            root: None,
        }
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.root.as_ref().map(Node::size).unwrap_or(0)
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        self.root.as_ref().map(Node::depth).unwrap_or(0)
    }

    fn majority(counts: &[usize], fallback: usize) -> usize {
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .filter(|(_, c)| **c > 0)
            .map(|(i, _)| i)
            .unwrap_or(fallback)
    }

    /// Scan every candidate split and return the winner. Only `(attr,
    /// threshold, gain_ratio)` is tracked during the scan; the winning
    /// partition index vectors are rebuilt once at the end, instead of on
    /// every improvement. The comparison sequence (attribute order, then
    /// ascending value order, strict `>` on gain ratio) matches the
    /// row-major reference, so the chosen split is identical.
    fn best_split(
        &self,
        data: &InstancesView<'_>,
        rows: &[usize],
        parent_entropy: f64,
        ctx: &mut FitCtx<'_>,
        sorted: &[Option<Vec<(usize, f64)>>],
    ) -> Option<Split> {
        let n = rows.len() as f64;
        // (gain_ratio, attribute, Some(threshold) | None = nominal).
        let mut best: Option<(f64, usize, Option<f64>)> = None;
        let attrs: Vec<usize> = match &self.feature_subset {
            Some(subset) => subset.clone(),
            None => (0..data.n_attributes()).collect(),
        };
        let FitCtx {
            labels,
            vals,
            sort_buf,
            total_counts,
            left_counts,
            memo,
            ..
        } = ctx;
        let n_classes = data.n_classes();
        for a in attrs {
            let col = data.col(a);
            match &data.attribute(a).kind {
                AttrKind::Numeric => {
                    // The node's present `(value, label)` pairs in
                    // ascending value order, straight from the node's
                    // filtered sort list (local sort only as a fallback
                    // if a list is missing). Buffers are reused across
                    // attributes and nodes.
                    vals.clear();
                    match &sorted[a] {
                        Some(list) => {
                            vals.extend(list.iter().map(|&(i, v)| (v, labels[i])));
                        }
                        None => {
                            sort_buf.clear();
                            sort_buf
                                .extend(rows.iter().filter_map(|&i| col.get(i).map(|v| (v, i))));
                            sort_buf
                                .sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                            vals.extend(sort_buf.iter().map(|&(v, i)| (v, labels[i])));
                        }
                    };
                    if vals.len() < 2 * self.min_leaf {
                        continue;
                    }
                    let present_n = vals.len();
                    let present_frac = present_n as f64 / n;
                    // Prefix class counts for O(1) split evaluation.
                    total_counts.clear();
                    total_counts.resize(n_classes, 0);
                    for (_, l) in vals.iter() {
                        if let Some(l) = l {
                            total_counts[*l] += 1;
                        }
                    }
                    let total_labeled: usize = total_counts.iter().sum();
                    left_counts.clear();
                    left_counts.resize(n_classes, 0);
                    let mut left_labeled = 0usize;
                    let mut i = 0;
                    while i + 1 < vals.len() {
                        if let Some(l) = vals[i].1 {
                            left_counts[l] += 1;
                            left_labeled += 1;
                        }
                        let (v, _) = vals[i];
                        let (next_v, _) = vals[i + 1];
                        i += 1;
                        if v == next_v {
                            continue;
                        }
                        let left_n = i;
                        let right_n = present_n - i;
                        if left_n < self.min_leaf || right_n < self.min_leaf {
                            continue;
                        }
                        // Right-side counts are `total - left`, taken
                        // without materializing a slice.
                        let left_entropy = memo.entropy(left_counts.iter().copied(), left_labeled);
                        let right_entropy = memo.entropy(
                            total_counts
                                .iter()
                                .zip(left_counts.iter())
                                .map(|(t, l)| t - l),
                            total_labeled - left_labeled,
                        );
                        let child_entropy = (left_n as f64 / present_n as f64) * left_entropy
                            + (right_n as f64 / present_n as f64) * right_entropy;
                        let gain = present_frac * (parent_entropy - child_entropy);
                        if gain <= 1e-12 {
                            continue;
                        }
                        let split_info = memo.split_info(left_n, present_n);
                        let gain_ratio = gain / split_info.max(1e-9);
                        if best.map(|(g, _, _)| gain_ratio > g).unwrap_or(true) {
                            best = Some((gain_ratio, a, Some((v + next_v) / 2.0)));
                        }
                    }
                }
                AttrKind::Nominal(dict) => {
                    if dict.len() < 2 {
                        continue;
                    }
                    // Per-category sizes and class counts in one pass —
                    // no per-category index vectors during the scan.
                    let mut sizes = vec![0usize; dict.len()];
                    let mut counts = vec![vec![0usize; n_classes]; dict.len()];
                    let mut present_n = 0usize;
                    for &i in rows {
                        if let Some(v) = col.get(i) {
                            present_n += 1;
                            let idx = v as usize;
                            if idx < dict.len() {
                                sizes[idx] += 1;
                                if let Some(l) = labels[i] {
                                    counts[idx][l] += 1;
                                }
                            }
                        }
                    }
                    if present_n < 2 * self.min_leaf {
                        continue;
                    }
                    let present_frac = present_n as f64 / n;
                    let non_empty = sizes.iter().filter(|&&s| s > 0).count();
                    if non_empty < 2 {
                        continue;
                    }
                    let mut child_entropy = 0.0;
                    let mut split_info = 0.0;
                    for (s, c) in sizes.iter().zip(&counts) {
                        if *s == 0 {
                            continue;
                        }
                        let frac = *s as f64 / present_n as f64;
                        child_entropy += frac * memo.entropy(c.iter().copied(), c.iter().sum());
                        split_info -= frac * frac.log2();
                    }
                    let gain = present_frac * (parent_entropy - child_entropy);
                    if gain <= 1e-12 {
                        continue;
                    }
                    let gain_ratio = gain / split_info.max(1e-9);
                    if best.map(|(g, _, _)| gain_ratio > g).unwrap_or(true) {
                        best = Some((gain_ratio, a, None));
                    }
                }
            }
        }
        // Rebuild the winning split's partitions (row order, exactly as
        // the scan-time builds did).
        let (_, attribute, threshold) = best?;
        let col = data.col(attribute);
        let mut missing_rows: Vec<usize> = Vec::new();
        let partitions: Vec<Vec<usize>> = match threshold {
            Some(t) => {
                let mut left = Vec::new();
                let mut right = Vec::new();
                for &i in rows {
                    match col.get(i) {
                        Some(v) => {
                            if v <= t {
                                left.push(i);
                            } else {
                                right.push(i);
                            }
                        }
                        None => missing_rows.push(i),
                    }
                }
                vec![left, right]
            }
            None => {
                let AttrKind::Nominal(dict) = &data.attribute(attribute).kind else {
                    unreachable!("nominal winner on a numeric attribute");
                };
                let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); dict.len()];
                for &i in rows {
                    match col.get(i) {
                        Some(v) => {
                            let idx = v as usize;
                            if idx < dict.len() {
                                partitions[idx].push(i);
                            }
                        }
                        None => missing_rows.push(i),
                    }
                }
                partitions
            }
        };
        Some(Split {
            attribute,
            threshold,
            partitions,
            missing_rows,
        })
    }

    fn build(
        &self,
        data: &InstancesView<'_>,
        rows: &[usize],
        depth: usize,
        fallback: usize,
        ctx: &mut FitCtx<'_>,
        parent_sorted: &[Option<Vec<(usize, f64)>>],
    ) -> Node {
        let mut counts = vec![0usize; data.n_classes()];
        for &i in rows {
            if let Some(l) = ctx.labels[i] {
                counts[l] += 1;
            }
        }
        let majority = Self::majority(&counts, fallback);
        let non_zero_classes = counts.iter().filter(|&&c| c > 0).count();
        if depth >= self.max_depth || rows.len() < 2 * self.min_leaf || non_zero_classes <= 1 {
            return Node::Leaf { class: majority };
        }
        // Derive this node's sorted lists by stable-filtering the parent's
        // with a membership stamp — order is preserved, nothing re-sorts,
        // and leaves (handled above) never pay for it.
        ctx.counter += 1;
        for &i in rows {
            ctx.stamp[i] = ctx.counter;
        }
        let (stamp, counter) = (&ctx.stamp, ctx.counter);
        let sorted: Vec<Option<Vec<(usize, f64)>>> = parent_sorted
            .iter()
            .map(|o| {
                o.as_ref().map(|list| {
                    list.iter()
                        .copied()
                        .filter(|&(i, _)| stamp[i] == counter)
                        .collect()
                })
            })
            .collect();
        let parent_entropy = ctx
            .memo
            .entropy(counts.iter().copied(), counts.iter().sum());
        let Some(split) = self.best_split(data, rows, parent_entropy, ctx, &sorted) else {
            return Node::Leaf { class: majority };
        };
        // Missing rows follow the most populated partition.
        let missing_to = split
            .partitions
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.len())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let children: Vec<Node> = split
            .partitions
            .iter()
            .enumerate()
            .map(|(pi, partition)| {
                let mut child_rows = partition.clone();
                if pi == missing_to {
                    child_rows.extend_from_slice(&split.missing_rows);
                }
                if child_rows.is_empty() {
                    Node::Leaf { class: majority }
                } else {
                    self.build(data, &child_rows, depth + 1, majority, ctx, &sorted)
                }
            })
            .collect();
        match split.threshold {
            Some(threshold) => Node::NumericSplit {
                attribute: split.attribute,
                threshold,
                missing_to,
                children,
            },
            None => Node::NominalSplit {
                attribute: split.attribute,
                missing_to,
                children,
                default: majority,
            },
        }
    }

    /// [`Classifier::fit_view`] with a caller-provided term memo, so a
    /// forest can share one memo across its trees.
    pub(crate) fn fit_view_with(
        &mut self,
        data: &InstancesView<'_>,
        memo: &mut SplitMemo,
    ) -> Result<()> {
        let labeled = data.labeled_indices();
        if labeled.is_empty() {
            return Err(MiningError::InvalidDataset(
                "DecisionTree needs labeled rows".into(),
            ));
        }
        let fallback = data.majority_class();
        let n = data.len();
        let labels: Vec<Option<usize>> = (0..n).map(|i| data.label(i)).collect();
        let attrs: Vec<usize> = match &self.feature_subset {
            Some(subset) => subset.clone(),
            None => (0..data.n_attributes()).collect(),
        };
        // One sort per numeric attribute per fit; every node reuses it.
        let mut presorted: Vec<Option<Vec<(usize, f64)>>> = vec![None; data.n_attributes()];
        for &a in &attrs {
            if data.attribute(a).kind != AttrKind::Numeric {
                continue;
            }
            let col = data.col(a);
            let mut order: Vec<(usize, f64)> =
                (0..n).filter_map(|i| col.get(i).map(|v| (i, v))).collect();
            order.sort_unstable_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
            presorted[a] = Some(order);
        }
        let mut ctx = FitCtx {
            labels,
            stamp: vec![0u32; n],
            counter: 0,
            vals: Vec::new(),
            sort_buf: Vec::new(),
            total_counts: Vec::new(),
            left_counts: Vec::new(),
            memo,
        };
        self.root = Some(self.build(data, &labeled, 0, fallback, &mut ctx, &presorted));
        Ok(())
    }
}

impl Classifier for DecisionTree {
    fn name(&self) -> &'static str {
        "DecisionTree"
    }

    fn fit_view(&mut self, data: &InstancesView<'_>) -> Result<()> {
        self.fit_view_with(data, &mut SplitMemo::for_tree())
    }

    fn predict_view(&self, data: &InstancesView<'_>) -> Result<Vec<usize>> {
        let root = self
            .root
            .as_ref()
            .ok_or(MiningError::NotFitted("DecisionTree"))?;
        // Iterative descent from the root against pre-fetched column views.
        let cols: Vec<_> = (0..data.n_attributes()).map(|a| data.col(a)).collect();
        Ok((0..data.len())
            .map(|i| {
                let mut node = root;
                loop {
                    match node {
                        Node::Leaf { class } => break *class,
                        Node::NumericSplit {
                            attribute,
                            threshold,
                            missing_to,
                            children,
                        } => {
                            let child = match cols.get(*attribute).and_then(|c| c.get(i)) {
                                // Keep the reference's `<=` comparison.
                                Some(v) => {
                                    if v <= *threshold {
                                        0
                                    } else {
                                        1
                                    }
                                }
                                None => *missing_to,
                            };
                            node = &children[child];
                        }
                        Node::NominalSplit {
                            attribute,
                            missing_to,
                            children,
                            default,
                        } => match cols.get(*attribute).and_then(|c| c.get(i)) {
                            Some(v) => {
                                let idx = v as usize;
                                if idx < children.len() {
                                    node = &children[idx];
                                } else {
                                    break *default;
                                }
                            }
                            None => node = &children[*missing_to],
                        },
                    }
                }
            })
            .collect())
    }

    fn model_size(&self) -> usize {
        self.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::predict_one;
    use crate::instances::{Attribute, Instances};

    fn xor_like() -> Instances {
        // Class = (x > 3.5) XOR (y > 3.5): needs depth-2 splits. The
        // boundary is off-center so single splits have positive gain
        // (a perfectly centered XOR has zero gain for every greedy
        // split and defeats any C4.5-style tree).
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for xi in 0..10 {
            for yi in 0..10 {
                let x = xi as f64;
                let y = yi as f64;
                rows.push(vec![Some(x), Some(y)]);
                labels.push(Some(usize::from((x > 3.5) != (y > 3.5))));
            }
        }
        Instances::from_rows(
            vec![
                Attribute {
                    name: "x".into(),
                    kind: AttrKind::Numeric,
                },
                Attribute {
                    name: "y".into(),
                    kind: AttrKind::Numeric,
                },
            ],
            rows,
            labels,
            vec!["0".into(), "1".into()],
        )
    }

    #[test]
    fn learns_xor_with_depth() {
        let mut t = DecisionTree::new(4, 1);
        t.fit(&xor_like()).unwrap();
        let d = xor_like();
        let preds = t.predict(&d).unwrap();
        let acc = preds
            .iter()
            .zip(&d.labels)
            .filter(|(p, l)| Some(**p) == **l)
            .count() as f64
            / d.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
        assert!(t.node_count() >= 7);
    }

    #[test]
    fn depth_one_cannot_learn_xor() {
        let mut t = DecisionTree::new(1, 1);
        t.fit(&xor_like()).unwrap();
        let d = xor_like();
        let preds = t.predict(&d).unwrap();
        let acc = preds
            .iter()
            .zip(&d.labels)
            .filter(|(p, l)| Some(**p) == **l)
            .count() as f64
            / d.len() as f64;
        assert!(acc < 0.7, "depth-1 accuracy {acc} should be near chance");
    }

    #[test]
    fn nominal_split() {
        let d = Instances::from_rows(
            vec![Attribute {
                name: "color".into(),
                kind: AttrKind::Nominal(vec!["r".into(), "g".into(), "b".into()]),
            }],
            (0..30).map(|i| vec![Some((i % 3) as f64)]).collect(),
            (0..30).map(|i| Some(usize::from(i % 3 == 2))).collect(),
            vec!["no".into(), "yes".into()],
        );
        let mut t = DecisionTree::new(3, 1);
        t.fit(&d).unwrap();
        assert_eq!(predict_one(&t, &d, &[Some(2.0)]).unwrap(), 1);
        assert_eq!(predict_one(&t, &d, &[Some(0.0)]).unwrap(), 0);
        // Unseen category falls back to the split default.
        let p = predict_one(&t, &d, &[Some(99.0)]).unwrap();
        assert!(p <= 1);
    }

    #[test]
    fn missing_routed_to_majority_branch() {
        let d = xor_like();
        let mut t = DecisionTree::new(4, 1);
        t.fit(&d).unwrap();
        // Just must not panic and must return a valid class.
        let p = predict_one(&t, &d, &[None, None]).unwrap();
        assert!(p < 2);
    }

    #[test]
    fn min_leaf_prunes() {
        let mut small = DecisionTree::new(16, 1);
        small.fit(&xor_like()).unwrap();
        let mut big = DecisionTree::new(16, 30);
        big.fit(&xor_like()).unwrap();
        assert!(big.node_count() < small.node_count());
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let d = Instances::from_rows(
            vec![Attribute {
                name: "x".into(),
                kind: AttrKind::Numeric,
            }],
            vec![vec![Some(1.0)], vec![Some(2.0)]],
            vec![Some(0), Some(0)],
            vec!["a".into(), "b".into()],
        );
        let mut t = DecisionTree::new(5, 1);
        t.fit(&d).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(predict_one(&t, &d, &[Some(9.0)]).unwrap(), 0);
    }

    #[test]
    fn unfitted_errors() {
        assert!(matches!(
            DecisionTree::new(3, 1).predict(&xor_like()),
            Err(MiningError::NotFitted(_))
        ));
    }

    /// Every memoised term has the bits of the expression the split search
    /// evaluated before the memo existed, for every integer argument up to
    /// and past each cap, both when a slot is filled and when it is read.
    #[test]
    fn memoised_terms_match_the_direct_expressions() {
        for mut memo in [SplitMemo::for_tree(), SplitMemo::for_forest()] {
            let cap = memo.max_total;
            for pass in ["fill", "hit"] {
                for t in 1..=FOREST_MEMO_MAX_TOTAL + 8 {
                    for c in 1..=t {
                        let p = c as f64 / t as f64;
                        let direct = -p * p.log2();
                        // A one-count entropy is that count's term alone.
                        let memoised = memo.entropy(std::iter::once(c), t);
                        assert_eq!(
                            memoised.to_bits(),
                            direct.to_bits(),
                            "cap {cap}: plogp({c}, {t}) on {pass}"
                        );
                        if c < t {
                            let direct = -p * p.log2() - (1.0 - p) * (1.0 - p).log2();
                            let memoised = memo.split_info(c, t);
                            assert_eq!(
                                memoised.to_bits(),
                                direct.to_bits(),
                                "cap {cap}: split_info({c}, {t}) on {pass}"
                            );
                        }
                    }
                }
            }
            // Three-class entropies fold the same terms in the same order.
            for t in (1..=FOREST_MEMO_MAX_TOTAL + 8).step_by(7) {
                for c0 in 0..=t {
                    let counts = [c0, (t - c0) / 2, t - c0 - (t - c0) / 2];
                    let direct: f64 = counts
                        .iter()
                        .filter(|&&c| c > 0)
                        .map(|&c| {
                            let p = c as f64 / t as f64;
                            -p * p.log2()
                        })
                        .sum();
                    let memoised = memo.entropy(counts.iter().copied(), t);
                    assert_eq!(memoised.to_bits(), direct.to_bits(), "{counts:?}");
                }
            }
            // Denominators past the cap never allocate a row.
            assert_eq!(memo.plogp.len(), cap + 1);
            assert_eq!(memo.split_info.len(), cap + 1);
        }
    }
}
