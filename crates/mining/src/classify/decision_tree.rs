//! A C4.5-style decision tree: gain-ratio splits, binary thresholds on
//! numeric attributes, multiway splits on nominal attributes, missing
//! values routed to the most populated branch.
//!
//! The kernel fits rows with integer multiplicities: a row of
//! multiplicity w enters every count as w, exactly as w copies of it
//! would. A single tree fits each labeled row once; a random forest fits
//! the distinct rows of each bootstrap sample, each as often as it was
//! drawn.
//!
//! Split search is columnar. Each numeric attribute of a training view is
//! sorted once (`Presorted`; a forest sorts once for all of its trees).
//! A fit lays out one arena: its rows in one vector and one
//! `(value, class, multiplicity, row)` list per numeric attribute it
//! searches, narrowed from the presort at the root, with every node a
//! contiguous segment of each. A split marks each row's child once and
//! stable-partitions the node's segments in place, so every child's
//! lists keep the parent's sorted order and no node re-sorts, filters or
//! allocates a list. Class counts accumulate as exact integers, so every
//! entropy and split-info term is a function of two integers; every fit
//! reads such terms from one process-wide table, which computes each
//! with the same expression once per process (terms with a denominator
//! above the table's cap are always computed).

use super::{check_attributes, Classifier};
use crate::error::{MiningError, Result};
use crate::instances::{AttrKind, InstancesView};
use std::sync::OnceLock;

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
    /// Attribute count of the fitted view.
    n_attributes: usize,
}

/// Largest denominator the split-term table stores. Each of its two
/// tables then holds at most Σ_{t≤512}(t+1) values (about 1 MiB), however
/// large the training set; terms with a larger denominator are computed
/// directly.
const TERM_TABLE_MAX_TOTAL: usize = 512;

/// One split-term table: row `t` holds the term for every numerator in
/// `0..=t`, filled whole the first time any fit in the process reads
/// denominator `t`. A term is a pure function of its two integers, so a
/// row has the same bits whichever thread fills it.
type TermTable = [OnceLock<Box<[f64]>>; TERM_TABLE_MAX_TOTAL + 1];

/// [`plogp`]`(c, t)` at `PLOGP[t][c]`.
static PLOGP: TermTable = [const { OnceLock::new() }; TERM_TABLE_MAX_TOTAL + 1];

/// [`binary_split_info`]`(left_n, n)` at `SPLIT_INFO[n][left_n]`.
static SPLIT_INFO: TermTable = [const { OnceLock::new() }; TERM_TABLE_MAX_TOTAL + 1];

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

/// Row `t` of `table`, filled by `term` on first use; `None` above the
/// cap. Slots no split search reads (a zero count, an empty side) hold
/// whatever the expression gives there.
fn term_row(
    table: &'static TermTable,
    t: usize,
    term: fn(usize, usize) -> f64,
) -> Option<&'static [f64]> {
    let row = table.get(t)?;
    Some(row.get_or_init(|| (0..=t).map(|c| term(c, t)).collect()))
}

/// Entropy of class counts that sum to `total`: the [`plogp`] terms of the
/// non-zero counts, summed in order.
fn entropy(counts: impl Iterator<Item = usize>, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let counts = counts.filter(|&c| c > 0);
    match term_row(&PLOGP, total, plogp) {
        Some(row) => counts.map(|c| row[c]).sum(),
        None => counts.map(|c| plogp(c, total)).sum(),
    }
}

/// [`binary_split_info`]`(left_n, n)`.
fn split_info(left_n: usize, n: usize) -> f64 {
    match term_row(&SPLIT_INFO, n, binary_split_info) {
        Some(row) => row[left_n],
        None => binary_split_info(left_n, n),
    }
}

/// A training view prepared for tree fits: each row's label, and the
/// present cells of each presorted numeric attribute in `(value, row)`
/// order under `total_cmp`. A forest prepares its view once and fits all
/// of its trees on it.
///
/// Tie order among equal values never influences the chosen split: equal
/// values admit no threshold between them, and class counts accumulate
/// as exact integers. Every present value is finite, since
/// [`Instances`](crate::instances::Instances) stores a NaN or ±∞ cell
/// as missing.
pub(crate) struct Presorted<'a> {
    data: &'a InstancesView<'a>,
    labels: Vec<Option<usize>>,
    /// `(row, value)` per present cell of each presorted attribute;
    /// `None` for the others.
    sorted: Vec<Option<Vec<(usize, f64)>>>,
}

impl<'a> Presorted<'a> {
    /// Sort each numeric attribute among `attrs` once.
    pub(crate) fn new(data: &'a InstancesView<'a>, attrs: &[usize]) -> Presorted<'a> {
        let mut sorted = vec![None; data.n_attributes()];
        for &a in attrs {
            if data.attribute(a).kind != AttrKind::Numeric {
                continue;
            }
            let col = data.col(a);
            let mut order: Vec<(usize, f64)> = (0..data.len())
                .filter_map(|i| col.get(i).map(|v| (i, v)))
                .collect();
            order.sort_unstable_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
            sorted[a] = Some(order);
        }
        Presorted {
            data,
            labels: (0..data.len()).map(|i| data.label(i)).collect(),
            sorted,
        }
    }

    /// The class of a row a fit reads: a row of positive multiplicity,
    /// which is labeled.
    fn class(&self, row: usize) -> usize {
        self.labels[row].expect("every row a fit reads is labeled")
    }
}

/// One present cell of a numeric attribute in a fit's arena: its value,
/// and its row with the row's class and multiplicity.
#[derive(Clone, Copy)]
struct Cell {
    value: f64,
    class: usize,
    weight: usize,
    row: usize,
}

/// The mark of a row whose split cell is missing, until the split knows
/// its `missing_to` child.
const MISSING: usize = usize::MAX;

/// Per-fit state threaded through the recursive build: one arena for the
/// whole fit.
///
/// The fit's rows sit in one vector, and the present cells of each
/// numeric attribute split search reads in one list in ascending value
/// order; every node owns one contiguous segment of each. A split
/// stable-partitions its node's segments in place by each row's child,
/// so every child's cells keep the parent's order (nothing re-sorts) and
/// the children own consecutive segments. A node holds each of its rows
/// once, with the row's multiplicity.
struct FitCtx<'t> {
    train: &'t Presorted<'t>,
    /// Multiplicity of each view row.
    weights: &'t [usize],
    /// The attributes split search reads.
    attrs: Vec<usize>,
    /// The fit's rows.
    rows: Vec<usize>,
    /// Per entry of `attrs`: its cells when it is numeric, else empty.
    cells: Vec<Vec<Cell>>,
    /// Segment bounds, one frame per node being built: the start and end
    /// of the node's rows, then of its segment of each list in `cells`.
    bounds: Vec<usize>,
    /// The bucket of each row of the node being split: its child, the
    /// child count for a row no child takes, or [`MISSING`].
    branch: Vec<usize>,
    /// Scratch reused across nodes: partition buffers and offsets, the
    /// node's class counts, prefix class counts for numeric scans, and
    /// per-category sizes and (category-major) class counts for nominal
    /// scans and child weights.
    row_scratch: Vec<usize>,
    cell_scratch: Vec<Cell>,
    offsets: Vec<usize>,
    node_counts: Vec<usize>,
    total_counts: Vec<usize>,
    left_counts: Vec<usize>,
    sizes: Vec<usize>,
    category_counts: Vec<usize>,
}

impl FitCtx<'_> {
    /// Values per node frame in `bounds`.
    fn frame_len(&self) -> usize {
        2 * (1 + self.cells.len())
    }
}

/// Stable-partition `seg` by `bucket` into buckets `0..offsets.len() - 1`,
/// one branch-free pass per bucket into `scratch`; afterwards bucket `b`
/// is `offsets[b]..offsets[b + 1]`. An item of a higher bucket reaches
/// none of them.
fn stable_partition<T: Copy>(
    seg: &mut [T],
    bucket: impl Fn(&T) -> usize,
    offsets: &mut [usize],
    scratch: &mut Vec<T>,
) {
    let Some(&first) = seg.first() else {
        offsets.fill(0);
        return;
    };
    // One spare slot takes the writes of a pass's trailing misses.
    scratch.clear();
    scratch.resize(seg.len() + 1, first);
    let buckets = offsets.len() - 1;
    let mut w = 0;
    for (b, start) in offsets[..buckets].iter_mut().enumerate() {
        *start = w;
        for x in seg.iter() {
            scratch[w] = *x;
            w += usize::from(bucket(x) == b);
        }
    }
    offsets[buckets] = w;
    seg[..w].copy_from_slice(&scratch[..w]);
}

struct Split {
    attribute: usize,
    /// `Some(threshold)` for numeric, `None` for nominal.
    threshold: Option<f64>,
}

impl DecisionTree {
    /// Create an untrained tree.
    pub fn new(max_depth: usize, min_leaf: usize) -> Self {
        DecisionTree {
            max_depth: max_depth.max(1),
            min_leaf: min_leaf.max(1),
            feature_subset: None,
            root: None,
            n_attributes: 0,
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

    /// The attributes split search reads in a view of `n_attributes`.
    fn attributes(&self, n_attributes: usize) -> Vec<usize> {
        match &self.feature_subset {
            Some(subset) => subset.clone(),
            None => (0..n_attributes).collect(),
        }
    }

    /// The class with the most rows, the last one on a tie. Every node
    /// holds labeled rows of positive multiplicity, so some count is
    /// positive.
    fn majority(counts: &[usize]) -> usize {
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Scan every candidate split of the node in `frame`, of total
    /// multiplicity `n`, and return the winner. The comparison sequence
    /// (attribute order, then ascending value order, strict `>` on gain
    /// ratio) matches the row-major reference, so the chosen split is
    /// identical.
    fn best_split(
        &self,
        frame: usize,
        n: usize,
        parent_entropy: f64,
        ctx: &mut FitCtx<'_>,
    ) -> Option<Split> {
        let n = n as f64;
        // (gain_ratio, attribute, Some(threshold) | None = nominal).
        let mut best: Option<(f64, usize, Option<f64>)> = None;
        let FitCtx {
            train,
            weights,
            attrs,
            rows,
            cells,
            bounds,
            total_counts,
            left_counts,
            sizes,
            category_counts,
            ..
        } = ctx;
        let data = train.data;
        let n_classes = data.n_classes();
        let rows = &rows[bounds[frame]..bounds[frame + 1]];
        for (j, &a) in attrs.iter().enumerate() {
            match &data.attribute(a).kind {
                AttrKind::Numeric => {
                    // The node's present cells in ascending value order.
                    let seg = &cells[j][bounds[frame + 2 + 2 * j]..bounds[frame + 3 + 2 * j]];
                    // Prefix class counts for O(1) split evaluation.
                    total_counts.clear();
                    total_counts.resize(n_classes, 0);
                    for c in seg {
                        total_counts[c.class] += c.weight;
                    }
                    let present_n: usize = total_counts.iter().sum();
                    if present_n < 2 * self.min_leaf {
                        continue;
                    }
                    let present_frac = present_n as f64 / n;
                    left_counts.clear();
                    left_counts.resize(n_classes, 0);
                    let mut left_n = 0usize;
                    for pair in seg.windows(2) {
                        let Cell {
                            value: v,
                            class: l,
                            weight: w,
                            ..
                        } = pair[0];
                        let next_v = pair[1].value;
                        left_n += w;
                        left_counts[l] += w;
                        // Copies of a row share its value, so no
                        // threshold ever falls between them.
                        if v == next_v {
                            continue;
                        }
                        let right_n = present_n - left_n;
                        if left_n < self.min_leaf || right_n < self.min_leaf {
                            continue;
                        }
                        // Right-side counts are `total - left`, taken
                        // without materializing a slice.
                        let left_entropy = entropy(left_counts.iter().copied(), left_n);
                        let right_entropy = entropy(
                            total_counts
                                .iter()
                                .zip(left_counts.iter())
                                .map(|(t, l)| t - l),
                            right_n,
                        );
                        let child_entropy = (left_n as f64 / present_n as f64) * left_entropy
                            + (right_n as f64 / present_n as f64) * right_entropy;
                        let gain = present_frac * (parent_entropy - child_entropy);
                        if gain <= 1e-12 {
                            continue;
                        }
                        let split_info = split_info(left_n, present_n);
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
                    // Per-category sizes and class counts in one pass.
                    let col = data.col(a);
                    sizes.clear();
                    sizes.resize(dict.len(), 0);
                    category_counts.clear();
                    category_counts.resize(dict.len() * n_classes, 0);
                    let mut present_n = 0usize;
                    for &i in rows {
                        if let Some(v) = col.get(i) {
                            let w = weights[i];
                            present_n += w;
                            let idx = v as usize;
                            if idx < dict.len() {
                                sizes[idx] += w;
                                category_counts[idx * n_classes + train.class(i)] += w;
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
                    for (s, c) in sizes.iter().zip(category_counts.chunks_exact(n_classes)) {
                        if *s == 0 {
                            continue;
                        }
                        let frac = *s as f64 / present_n as f64;
                        child_entropy += frac * entropy(c.iter().copied(), *s);
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
        let (_, attribute, threshold) = best?;
        Some(Split {
            attribute,
            threshold,
        })
    }

    /// Send the rows of the node in `frame` down `split`: mark each row's
    /// child once, stable-partition the node's segments in place and push
    /// one frame per child after the last frame. Missing rows follow the
    /// child of most present multiplicity (the last one on a tie); a
    /// nominal code outside the dictionary reaches no child. Returns the
    /// child count and `missing_to`.
    fn partition(&self, split: &Split, frame: usize, ctx: &mut FitCtx<'_>) -> (usize, usize) {
        let data = ctx.train.data;
        let col = data.col(split.attribute);
        let k = match (&data.attribute(split.attribute).kind, split.threshold) {
            (_, Some(_)) => 2,
            (AttrKind::Nominal(dict), None) => dict.len(),
            (AttrKind::Numeric, None) => unreachable!("nominal winner on a numeric attribute"),
        };
        // The child of a present value; `k` when no child takes it.
        let child = |v: f64| match split.threshold {
            // Keep the reference's `<=` comparison.
            Some(t) => {
                if v <= t {
                    0
                } else {
                    1
                }
            }
            None => (v as usize).min(k),
        };
        let (lo, hi) = (ctx.bounds[frame], ctx.bounds[frame + 1]);
        let sizes = &mut ctx.sizes;
        sizes.clear();
        sizes.resize(k + 1, 0);
        for &i in &ctx.rows[lo..hi] {
            let b = col.get(i).map_or(MISSING, child);
            ctx.branch[i] = b;
            if b != MISSING {
                sizes[b] += ctx.weights[i];
            }
        }
        let missing_to = sizes[..k]
            .iter()
            .enumerate()
            .max_by_key(|&(_, w)| *w)
            .map(|(c, _)| c)
            .unwrap_or(0);
        for &i in &ctx.rows[lo..hi] {
            if ctx.branch[i] == MISSING {
                ctx.branch[i] = missing_to;
            }
        }
        let frame_len = ctx.frame_len();
        let base = ctx.bounds.len();
        ctx.bounds.resize(base + k * frame_len, 0);
        ctx.offsets.clear();
        ctx.offsets.resize(k + 1, 0);
        for m in 0..frame_len / 2 {
            let (lo, hi) = (ctx.bounds[frame + 2 * m], ctx.bounds[frame + 2 * m + 1]);
            if m == 0 {
                stable_partition(
                    &mut ctx.rows[lo..hi],
                    |&i| ctx.branch[i],
                    &mut ctx.offsets,
                    &mut ctx.row_scratch,
                );
            } else {
                stable_partition(
                    &mut ctx.cells[m - 1][lo..hi],
                    |c| ctx.branch[c.row],
                    &mut ctx.offsets,
                    &mut ctx.cell_scratch,
                );
            }
            for c in 0..k {
                let at = base + c * frame_len + 2 * m;
                ctx.bounds[at] = lo + ctx.offsets[c];
                ctx.bounds[at + 1] = lo + ctx.offsets[c + 1];
            }
        }
        (k, missing_to)
    }

    fn build(&self, frame: usize, depth: usize, ctx: &mut FitCtx<'_>) -> Node {
        let (lo, hi) = (ctx.bounds[frame], ctx.bounds[frame + 1]);
        ctx.node_counts.clear();
        ctx.node_counts.resize(ctx.train.data.n_classes(), 0);
        let mut n = 0;
        for &i in &ctx.rows[lo..hi] {
            let w = ctx.weights[i];
            n += w;
            ctx.node_counts[ctx.train.class(i)] += w;
        }
        let counts = &ctx.node_counts;
        let majority = Self::majority(counts);
        let non_zero_classes = counts.iter().filter(|&&c| c > 0).count();
        if depth >= self.max_depth || n < 2 * self.min_leaf || non_zero_classes <= 1 {
            return Node::Leaf { class: majority };
        }
        let parent_entropy = entropy(counts.iter().copied(), n);
        let Some(split) = self.best_split(frame, n, parent_entropy, ctx) else {
            return Node::Leaf { class: majority };
        };
        let base = ctx.bounds.len();
        let (k, missing_to) = self.partition(&split, frame, ctx);
        let frame_len = ctx.frame_len();
        let children: Vec<Node> = (0..k)
            .map(|c| {
                let child = base + c * frame_len;
                if ctx.bounds[child] == ctx.bounds[child + 1] {
                    Node::Leaf { class: majority }
                } else {
                    self.build(child, depth + 1, ctx)
                }
            })
            .collect();
        ctx.bounds.truncate(base);
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

    /// The one fitting kernel: fit on `train`, row `i` counted
    /// `weights[i]` times. A row of multiplicity 0 is left out; every
    /// other row must be labeled, and at least one must be.
    pub(crate) fn fit_weighted(&mut self, train: &Presorted<'_>, weights: &[usize]) {
        let data = train.data;
        let n_attributes = data.n_attributes();
        let attrs = self.attributes(n_attributes);
        let rows: Vec<usize> = (0..weights.len()).filter(|&i| weights[i] > 0).collect();
        // The arena's lists: each numeric presort narrowed to the fit's
        // rows, in its sorted order.
        let cells: Vec<Vec<Cell>> = attrs
            .iter()
            .map(|&a| match data.attribute(a).kind {
                AttrKind::Numeric => train.sorted[a]
                    .as_ref()
                    .expect("every numeric attribute of the fit is presorted")
                    .iter()
                    .filter(|&&(row, _)| weights[row] > 0)
                    .map(|&(row, value)| Cell {
                        value,
                        class: train.class(row),
                        weight: weights[row],
                        row,
                    })
                    .collect(),
                AttrKind::Nominal(_) => Vec::new(),
            })
            .collect();
        let mut bounds = vec![0, rows.len()];
        for list in &cells {
            bounds.extend([0, list.len()]);
        }
        let mut ctx = FitCtx {
            train,
            weights,
            attrs,
            rows,
            cells,
            bounds,
            branch: vec![0; weights.len()],
            row_scratch: Vec::new(),
            cell_scratch: Vec::new(),
            offsets: Vec::new(),
            node_counts: Vec::new(),
            total_counts: Vec::new(),
            left_counts: Vec::new(),
            sizes: Vec::new(),
            category_counts: Vec::new(),
        };
        self.root = Some(self.build(0, 0, &mut ctx));
        self.n_attributes = n_attributes;
    }
}

impl Classifier for DecisionTree {
    fn name(&self) -> &'static str {
        "DecisionTree"
    }

    fn fit_view(&mut self, data: &InstancesView<'_>) -> Result<()> {
        if data.labeled_indices().is_empty() {
            return Err(MiningError::InvalidDataset(
                "DecisionTree needs labeled rows".into(),
            ));
        }
        let train = Presorted::new(data, &self.attributes(data.n_attributes()));
        let weights: Vec<usize> = train
            .labels
            .iter()
            .map(|l| usize::from(l.is_some()))
            .collect();
        self.fit_weighted(&train, &weights);
        Ok(())
    }

    fn predict_view(&self, data: &InstancesView<'_>) -> Result<Vec<usize>> {
        let root = self
            .root
            .as_ref()
            .ok_or(MiningError::NotFitted("DecisionTree"))?;
        check_attributes("DecisionTree", self.n_attributes, data)?;
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
                            let child = match cols[*attribute].get(i) {
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
                        } => match cols[*attribute].get(i) {
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
    use openbi_table::Rng;

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

    /// A seeded dataset with missing cells, a nominal attribute that also
    /// holds codes outside its dictionary, and unlabeled rows.
    fn seeded(seed: u64) -> Instances {
        let mut rng = Rng::seed_from_u64(seed);
        let n = 90;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let class = rng.below(3);
            let cell = |present: bool, v: f64| present.then_some(v);
            let x = cell(rng.below(6) != 0, class as f64 + rng.below(5) as f64 * 0.5);
            let y = cell(rng.below(8) != 0, rng.below(7) as f64);
            let code = if rng.below(12) == 0 {
                7
            } else {
                (class + rng.below(2)) % 4
            };
            let colour = cell(rng.below(5) != 0, code as f64);
            let z = cell(true, (rng.below(9) as f64 - class as f64).abs());
            rows.push(vec![x, y, colour, z]);
            labels.push((rng.below(10) != 0).then_some(class));
        }
        let numeric = |name: &str| Attribute {
            name: name.into(),
            kind: AttrKind::Numeric,
        };
        Instances::from_rows(
            vec![
                numeric("x"),
                numeric("y"),
                Attribute {
                    name: "colour".into(),
                    kind: AttrKind::Nominal(vec!["p".into(), "q".into(), "r".into(), "s".into()]),
                },
                numeric("z"),
            ],
            rows,
            labels,
            vec!["a".into(), "b".into(), "c".into()],
        )
    }

    /// A tree fitted on a bootstrap sample's distinct rows with their
    /// multiplicities is the tree fitted on the sample's duplicated-row
    /// view: the same structure, predictions and node count.
    #[test]
    fn multiplicities_fit_like_duplicated_rows() {
        for seed in 0..24u64 {
            let d = seeded(seed);
            let view = d.view();
            let labeled = view.labeled_indices();
            let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
            let sample: Vec<usize> = (0..labeled.len())
                .map(|_| labeled[rng.below(labeled.len())])
                .collect();
            let mut weights = vec![0usize; d.len()];
            for &i in &sample {
                weights[i] += 1;
            }
            let subset = (seed % 3 == 0).then(|| rng.sample_indices(4, 2));
            let (max_depth, min_leaf) = (2 + seed as usize % 6, 1 + seed as usize % 3);
            let mut counted = DecisionTree::new(max_depth, min_leaf);
            counted.feature_subset = subset.clone();
            let all: Vec<usize> = (0..d.n_attributes()).collect();
            counted.fit_weighted(&Presorted::new(&view, &all), &weights);
            let mut copied = DecisionTree::new(max_depth, min_leaf);
            copied.feature_subset = subset;
            copied.fit_view(&view.select_rows(&sample)).unwrap();
            assert_eq!(
                format!("{:?}", counted.root),
                format!("{:?}", copied.root),
                "seed {seed}"
            );
            assert_eq!(counted.predict(&d).unwrap(), copied.predict(&d).unwrap());
            assert_eq!(counted.node_count(), copied.node_count());
            assert!(counted.node_count() > 1, "seed {seed}: the tree splits");
        }
    }

    /// Every term the table serves has the bits of the expression the split
    /// search evaluated before the table existed, for every integer
    /// argument up to and past the cap, with the rows first filled by
    /// several threads at once.
    #[test]
    fn memoised_terms_match_the_direct_expressions() {
        let threads = 4;
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for k in 0..threads {
                let start = &start;
                s.spawn(move || {
                    let mut totals: Vec<usize> = (1..=TERM_TABLE_MAX_TOTAL + 8).collect();
                    // Half the threads walk the denominators down, so
                    // rows are filled from both ends at once.
                    if k % 2 == 1 {
                        totals.reverse();
                    }
                    start.wait();
                    for t in totals {
                        for c in 1..=t {
                            let p = c as f64 / t as f64;
                            let direct = -p * p.log2();
                            // A one-count entropy is that count's term alone.
                            let served = entropy(std::iter::once(c), t);
                            assert_eq!(served.to_bits(), direct.to_bits(), "plogp({c}, {t})");
                            if c < t {
                                let direct = -p * p.log2() - (1.0 - p) * (1.0 - p).log2();
                                let served = split_info(c, t);
                                assert_eq!(
                                    served.to_bits(),
                                    direct.to_bits(),
                                    "split_info({c}, {t})"
                                );
                            }
                        }
                    }
                });
            }
        });
        // Three-class entropies fold the same terms in the same order.
        for t in (1..=TERM_TABLE_MAX_TOTAL + 8).step_by(7) {
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
                let served = entropy(counts.iter().copied(), t);
                assert_eq!(served.to_bits(), direct.to_bits(), "{counts:?}");
            }
        }
        // Denominators past the cap have no row.
        assert!(term_row(&PLOGP, TERM_TABLE_MAX_TOTAL, plogp).is_some());
        assert!(term_row(&PLOGP, TERM_TABLE_MAX_TOTAL + 1, plogp).is_none());
        assert!(term_row(&SPLIT_INFO, TERM_TABLE_MAX_TOTAL + 1, binary_split_info).is_none());
    }
}
