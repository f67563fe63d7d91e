//! HeRAD — *Heterogeneous Resource Allocation using Dynamic programming*
//! (Section V, Algorithms 7–11): the optimal solution to the period
//! minimization problem, also optimal for the secondary objective of using
//! as many little cores as necessary.
//!
//! The DP computes `P*(j, b, l)` — the best period for the first `j` tasks
//! on `b` big and `l` little cores — via the recurrence of Eq. (4):
//! try every start `i` for the stage finishing at `τ_j` and every core
//! assignment `u` of either type, combining with the optimal prefix
//! `P*(i-1, ·, ·)`.
//!
//! The naive recurrence costs `O(n² b l (b+l))`, which is prohibitive for
//! the paper's Fig. 3/4 sweeps. [`Pruning`] selects how aggressively
//! provably-useless candidates are skipped; all modes return optimal
//! *periods* (property-tested against each other and against exhaustive
//! search), see each variant for the tie-breaking guarantee.
//!
//! ## One cell function, four drivers
//!
//! Every way the table is filled — the sequential rebuild, the
//! layer-parallel rebuild, and the incremental pool-delta grow — funnels
//! through the same pure [`cell_value`] function, which computes the final
//! value of cell `(j, rb, rl)` from the chain and a read-only view of
//! already-final cells. Bit-identical results across drivers are therefore
//! structural, not incidental: the drivers only differ in the *order* cells
//! are produced, and that order always respects the recurrence's
//! dependencies (left neighbour, down neighbour, all earlier layers).
//!
//! ## Pool independence (the sub-table-growth invariant)
//!
//! The recurrence for cell `(j, rb, rl)` never mentions the total pool
//! `(B, L)` — only the cell's own indices bound the candidate loops and
//! neighbour reads. The value of `(j, rb, rl)` is therefore a pure function
//! of the chain prefix and the indices, identical in every table that
//! contains the cell: the `(b, ℓ)` table is a strict sub-table of any
//! `(b', ℓ')` table with `b' ≥ b, ℓ' ≥ ℓ`. [`Table::grow`] exploits this to
//! extend a solved table with only the new rows/columns, and extraction at
//! any covered pool walks only cells with indices `≤ (b, ℓ)` — so a grown
//! table answers every smaller pool bit-identically to a fresh solve.
//!
//! ## Exact periods in two machine words
//!
//! Every period the recurrence produces is a stage weight — an interval
//! sum of task weights (a `u64` prefix-sum difference) over a core count —
//! or the maximum of two such weights, which is one of them. A cell
//! therefore stores `S_Pbest` as a raw, never-normalized `u64 / u64`
//! [`Period`], with the two sentinels `1/0` (infinity) and `0/1` (zero),
//! and orders periods by plain cross-multiplication: `a/b < c/d` exactly
//! when `a·d < c·b`, each side one `u128` product of `u64` operands, so it
//! cannot overflow, and the sentinels need no branch of their own. The
//! cell is 40 bytes (a `u128` [`Ratio`] made it 64). Periods leave the
//! table only at its boundary: [`Table::period_at`] hands them out through
//! [`Ratio::new_raw`], so callers see the `sum/cores` form the recurrence
//! found, and the snapshot codec writes and reads the same raw `num/den`.

use crate::chain::TaskChain;
use crate::ratio::Ratio;
use crate::resources::{CoreType, Resources};
use crate::sched::{SchedScratch, Scheduler};
use crate::solution::{Solution, Stage};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};

/// Candidate-skipping policy for HeRAD's inner loops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Pruning {
    /// No pruning beyond the paper's own "sequential stages use one core"
    /// optimization. Reference implementation for tests.
    None,
    /// Skips only candidates that are provably *strictly worse in period*
    /// than the best already found for the cell: identical results to
    /// [`Pruning::None`], bit for bit (period and tie-breaking).
    Lossless,
    /// Additionally stops raising the replication count once the stage
    /// weight drops to (or below) the prefix period: every further
    /// candidate ties or worsens the period while using more cores, so the
    /// period stays optimal; in rare ties a different (never larger-period)
    /// core mix may be preferred. Default: orders of magnitude faster on
    /// large core counts.
    #[default]
    Aggressive,
}

/// Cell-count threshold below which the parallel kernel never engages in
/// auto mode: a table this small solves in tens of microseconds, under the
/// cost of spawning scoped workers and crossing per-layer barriers.
const PAR_MIN_CELLS: usize = 1 << 15;

/// The most cells [`Herad::fill`] grows a table to, and the most a
/// service request may make HeRAD or `EnergyDp` build: 80 MB of HeRAD
/// cells. It admits the largest figure instance, Fig. 3's 160 tasks on
/// 100+100 cores (1 632 160 cells).
pub const MAX_TABLE_CELLS: usize = 1 << 21;

/// Cells of a DP table with `rows` layers over `resources`,
/// `rows·(B+1)·(L+1)`, or `None` when that overflows `usize`.
#[must_use]
pub fn table_cells(rows: usize, resources: Resources) -> Option<usize> {
    let side = |cores: u64| usize::try_from(cores).ok()?.checked_add(1);
    rows.checked_mul(side(resources.big)?)?
        .checked_mul(side(resources.little)?)
}

/// `std::thread::available_parallelism`, resolved once per process —
/// [`Herad::new`] is constructed on hot paths (per request in the
/// service), so the syscall must not repeat.
fn machine_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// The HeRAD scheduler.
#[derive(Clone, Copy, Debug)]
pub struct Herad {
    pruning: Pruning,
    /// Worker cap for the layer-parallel kernel; `0` = auto (machine
    /// parallelism). Always clamped to the table's row count at run time.
    workers: usize,
    /// Minimum table size (in cells) before the parallel kernel engages.
    min_cells: usize,
}

impl Default for Herad {
    fn default() -> Self {
        Herad {
            pruning: Pruning::default(),
            workers: 0,
            min_cells: PAR_MIN_CELLS,
        }
    }
}

impl Herad {
    /// HeRAD with the default (aggressive, period-optimal) pruning and
    /// automatic kernel selection: sequential for small tables, the
    /// layer-parallel kernel (bit-identical, see module docs) above
    /// a cell-count threshold when the machine has more than one core.
    #[must_use]
    pub fn new() -> Self {
        Herad::default()
    }

    /// HeRAD with an explicit pruning policy (automatic kernel selection).
    #[must_use]
    pub fn with_pruning(pruning: Pruning) -> Self {
        Herad {
            pruning,
            ..Herad::default()
        }
    }

    /// HeRAD that always runs the layer-parallel kernel with up to
    /// `workers` scoped threads, regardless of table size (`workers` is
    /// still clamped to the table's `B + 1` rows; `1` forces the
    /// sequential kernel). Results are bit-identical to sequential — this
    /// constructor exists for differential tests and benchmarks.
    #[must_use]
    pub fn with_parallelism(workers: usize) -> Self {
        Herad::with_pruning_and_parallelism(Pruning::default(), workers)
    }

    /// [`Herad::with_parallelism`] with an explicit pruning policy.
    #[must_use]
    pub fn with_pruning_and_parallelism(pruning: Pruning, workers: usize) -> Self {
        Herad {
            pruning,
            workers: workers.max(1),
            min_cells: 0,
        }
    }

    /// How many workers the kernel should use for a table of `cells`.
    fn kernel_workers(&self, cells: usize) -> usize {
        if cells < self.min_cells {
            return 1;
        }
        if self.workers == 0 {
            machine_parallelism()
        } else {
            self.workers
        }
    }

    /// The optimal period for the chain on these resources, without
    /// extracting the schedule.
    #[must_use]
    pub fn optimal_period(&self, chain: &TaskChain, resources: Resources) -> Option<Ratio> {
        let mut scratch = SchedScratch::new();
        self.optimal_period_with(chain, resources, &mut scratch)
    }

    /// [`Herad::optimal_period`] on the scratch's [`ChainTable`], brought
    /// to cover the pool by [`Herad::fill`] (allocation-free once the
    /// table has warmed up, and DP-free when it already covers the pool).
    #[must_use]
    pub fn optimal_period_with(
        &self,
        chain: &TaskChain,
        resources: Resources,
        scratch: &mut SchedScratch,
    ) -> Option<Ratio> {
        if resources.is_exhausted() {
            return None;
        }
        self.fill(&mut scratch.herad_table, chain, resources);
        scratch.herad_table.period_at(resources)
    }

    /// Brings `table` to cover `chain` on `resources` under this
    /// scheduler's pruning, and reports how. A table keyed to the chain
    /// and pruning that covers the pool is left as it is; one keyed to
    /// them at a smaller pool grows in place by the pool delta, unless the
    /// grown table would pass [`MAX_TABLE_CELLS`]; anything else is
    /// rebuilt at exactly this pool, in the table's own cell and key
    /// buffers. Cells are pool-independent, so that rebuild answers as the
    /// grow would have, and two skewed pools such as `(n, 0)` and `(0, n)`
    /// never swell the table to their `(n, n)` union. Growing and
    /// rebuilding run with the key cleared, so a fill that unwinds leaves
    /// a table that matches no chain, and the next fill rebuilds it.
    pub fn fill(
        &self,
        table: &mut ChainTable,
        chain: &TaskChain,
        resources: Resources,
    ) -> TableFill {
        self.fill_with(table, chain, resources, |_| {})
    }

    /// [`Herad::fill`], calling `before` with the decision right before
    /// acting on it: inside the mutation window for a grow or a rebuild,
    /// ahead of any extraction otherwise. The service tier injects its
    /// faults there.
    pub fn fill_with(
        &self,
        table: &mut ChainTable,
        chain: &TaskChain,
        resources: Resources,
        before: impl FnOnce(TableFill),
    ) -> TableFill {
        let (b0, l0) = table.dims();
        let fill = if table.pruning != self.pruning || !table.matches(chain) {
            TableFill::Cold
        } else if table.covers(resources) {
            TableFill::Extracted
        } else {
            let union = Resources::new(
                resources.big.max(b0 as u64),
                resources.little.max(l0 as u64),
            );
            if table_cells(chain.len(), union).is_some_and(|c| c <= MAX_TABLE_CELLS) {
                TableFill::Grown
            } else {
                TableFill::Cold
            }
        };
        if fill == TableFill::Extracted {
            before(fill);
            return fill;
        }
        let mut key = std::mem::take(&mut table.tasks);
        before(fill);
        let b = usize::try_from(resources.big).expect("core count fits usize");
        let l = usize::try_from(resources.little).expect("core count fits usize");
        if fill == TableFill::Grown {
            table.table.grow(chain, b.max(b0), l.max(l0), self.pruning);
        } else {
            let cells =
                table_cells(chain.len(), resources).expect("HeRAD table size overflows usize");
            let workers = self.kernel_workers(cells);
            table.table.rebuild(chain, b, l, self.pruning, workers);
            table.pruning = self.pruning;
            key.clear();
            key.extend(
                chain
                    .tasks()
                    .iter()
                    .map(|t| (t.weight_big, t.weight_little, t.replicable)),
            );
        }
        table.tasks = key;
        fill
    }
}

impl Scheduler for Herad {
    fn name(&self) -> &'static str {
        "HeRAD"
    }

    /// Brings the scratch's [`ChainTable`] to cover this chain and pool
    /// ([`Herad::fill`]) and extracts from it: a repeated or covered pool
    /// is pure extraction, a larger pool grows the table by the pool
    /// delta, and only a new chain (or pruning) pays for a rebuild.
    fn schedule_into(
        &self,
        chain: &TaskChain,
        resources: Resources,
        scratch: &mut SchedScratch,
        out: &mut Solution,
    ) -> bool {
        if resources.is_exhausted() {
            out.stages_mut().clear();
            return false;
        }
        self.fill(&mut scratch.herad_table, chain, resources);
        scratch.herad_table.extract(chain, resources, out)
    }
}

/// A DP period `num / den`: an interval sum over a core count, kept raw
/// (never gcd-normalized), or one of the sentinels [`Period::INFINITY`]
/// (`1/0`) and [`Period::ZERO`] (`0/1`). Equality and order are by value,
/// through one cross-multiplication (see the module docs), so
/// [`Ord::max`] keeps its second argument on ties exactly as it does for
/// [`Ratio`].
#[derive(Clone, Copy, Debug)]
struct Period {
    num: u64,
    den: u64,
}

impl Period {
    const INFINITY: Period = Period { num: 1, den: 0 };
    const ZERO: Period = Period { num: 0, den: 1 };

    fn is_finite(self) -> bool {
        self.den != 0
    }

    fn is_infinite(self) -> bool {
        self.den == 0
    }

    /// The same raw `num/den` as an exact [`Ratio`].
    fn to_ratio(self) -> Ratio {
        Ratio::new_raw(u128::from(self.num), u128::from(self.den))
    }
}

impl PartialEq for Period {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Period {}

impl PartialOrd for Period {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Period {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (u128::from(self.num) * u128::from(other.den))
            .cmp(&(u128::from(other.num) * u128::from(self.den)))
    }
}

/// One cell of the solution matrix `S[j][b][l]` (Algorithm 7, lines 1–7):
/// 16 bytes of period, four `u32` core counters, the start index and the
/// core type — 40 bytes with padding.
#[derive(Clone, Copy, Debug)]
struct Cell {
    /// `S_Pbest`: minimal maximum period.
    pbest: Period,
    /// `S_prev`: big and little cores available to the previous stages.
    prev_b: u32,
    prev_l: u32,
    /// `S_acc`: accumulated big and little cores used by the solution.
    acc_b: u32,
    acc_l: u32,
    /// `S_v`: type of core used in the last stage.
    v: CoreType,
    /// `S_start`: 0-based index of the first task of the last stage.
    start: u32,
}

const _: () = assert!(std::mem::size_of::<Cell>() == 40);

const EMPTY_CELL: Cell = Cell {
    pbest: Period::INFINITY,
    prev_b: 0,
    prev_l: 0,
    acc_b: 0,
    acc_l: 0,
    v: CoreType::Little,
    start: 0,
};

/// The virtual row 0 (`P*(0, ·, ·) = 0`): an empty prefix using no cores.
const ZERO_CELL: Cell = Cell {
    pbest: Period::ZERO,
    prev_b: 0,
    prev_l: 0,
    acc_b: 0,
    acc_l: 0,
    v: CoreType::Little,
    start: 0,
};

/// `CompareCells` (Algorithm 10): whether the new cell `n` should replace
/// the current cell `c` — strictly better period, or an equal period with a
/// better big→little exchange, or an equal period using no more cores of
/// either type.
fn replaces(c: &Cell, n: &Cell) -> bool {
    if n.pbest < c.pbest {
        return true;
    }
    if n.pbest > c.pbest {
        return false;
    }
    (c.acc_l < n.acc_l && c.acc_b > n.acc_b) || (c.acc_l >= n.acc_l && c.acc_b >= n.acc_b)
}

fn compare_cells(c: Cell, n: Cell) -> Cell {
    if replaces(&c, &n) {
        n
    } else {
        c
    }
}

/// Stage weight `sum / u` (`sum / 1` for a sequential stage), raw.
/// Callers pass `u ≥ 1`.
#[inline]
fn stage_weight(
    chain: &TaskChain,
    start: usize,
    end: usize,
    rep: bool,
    u: u64,
    v: CoreType,
) -> Period {
    Period {
        num: chain.interval_sum(start, end, v),
        den: if rep { u } else { 1 },
    }
}

/// `SingleStageSolution` (Algorithm 8) for one cell: the best placement of
/// all `t` first tasks in a single stage on `rb` big xor `rl` little cores.
/// A pure function of the chain and indices (cheap: two O(1) prefix-sum
/// weights), so every driver recomputes it instead of staging seeds in the
/// table — `(t, 0, 0)` is the infeasible [`EMPTY_CELL`], ties go to the
/// little cores (strict `<`, Algorithm 8 line 9).
#[inline]
fn seed_cell(chain: &TaskChain, t: usize, rb: usize, rl: usize) -> Cell {
    let rep = chain.is_replicable(0, t - 1);
    let little = if rl == 0 {
        EMPTY_CELL
    } else {
        Cell {
            pbest: stage_weight(chain, 0, t - 1, rep, rl as u64, CoreType::Little),
            prev_b: 0,
            prev_l: 0,
            acc_b: 0,
            acc_l: if rep { rl as u32 } else { 1 },
            v: CoreType::Little,
            start: 0,
        }
    };
    if rb == 0 {
        return little;
    }
    let wb = stage_weight(chain, 0, t - 1, rep, rb as u64, CoreType::Big);
    if wb < little.pbest {
        Cell {
            pbest: wb,
            prev_b: 0,
            prev_l: 0,
            acc_b: if rep { rb as u32 } else { 1 },
            acc_l: 0,
            v: CoreType::Big,
            start: 0,
        }
    } else {
        little
    }
}

/// `RecomputeCell` (Algorithm 9): computes `P*(j, b_av, l_av)` from the
/// single-stage seed, the two fewer-core neighbour cells, and every
/// (start, core-count, core-type) split of the last stage. `get` is the
/// driver's read-only view of already-final cells; it must return
/// [`ZERO_CELL`] for `j == 0` and is only consulted at indices the
/// recurrence depends on: `(j, b_av, l_av - 1)`, `(j, b_av - 1, l_av)` and
/// prefixes `(i - 1, pb ≤ b_av, pl ≤ l_av)` in earlier layers.
#[inline]
fn compute_cell<G>(
    chain: &TaskChain,
    j: usize,
    b_av: usize,
    l_av: usize,
    pruning: Pruning,
    get: G,
) -> Cell
where
    G: Fn(usize, usize, usize) -> Cell,
{
    let mut c = seed_cell(chain, j, b_av, l_av);
    // Propagate solutions that simply leave one core unused.
    if l_av > 0 {
        c = compare_cells(c, get(j, b_av, l_av - 1));
    }
    if b_av > 0 {
        c = compare_cells(c, get(j, b_av - 1, l_av));
    }
    for i in (1..=j).rev() {
        // 1-based stage [τ_i, τ_j] = 0-based tasks [i-1, j-1].
        let (s, e) = (i - 1, j - 1);
        let rep = chain.is_replicable(s, e);
        if pruning != Pruning::None && c.pbest.is_finite() {
            // Even with every available core, this stage (and any longer
            // one: weights grow as i decreases) exceeds the best found.
            let mut min_w = Period::INFINITY;
            if b_av > 0 {
                let u = if rep { b_av as u64 } else { 1 };
                min_w = min_w.min(stage_weight(chain, s, e, rep, u, CoreType::Big));
            }
            if l_av > 0 {
                let u = if rep { l_av as u64 } else { 1 };
                min_w = min_w.min(stage_weight(chain, s, e, rep, u, CoreType::Little));
            }
            if min_w > c.pbest {
                break;
            }
        }
        for v in CoreType::BOTH {
            let avail = match v {
                CoreType::Big => b_av,
                CoreType::Little => l_av,
            };
            // The paper's optimization: a sequential stage cannot use
            // more than one core.
            let u_max = if rep { avail } else { avail.min(1) };
            for u in 1..=u_max {
                let (pb, pl) = match v {
                    CoreType::Big => (b_av - u, l_av),
                    CoreType::Little => (b_av, l_av - u),
                };
                let prefix = get(i - 1, pb, pl);
                if pruning != Pruning::None && prefix.pbest > c.pbest {
                    // Prefixes only get worse as this stage takes more
                    // cores; every remaining candidate is strictly worse.
                    break;
                }
                let w = stage_weight(chain, s, e, rep, u as u64, v);
                let used = if rep { u as u32 } else { 1 };
                let cand = Cell {
                    pbest: prefix.pbest.max(w),
                    prev_b: pb as u32,
                    prev_l: pl as u32,
                    acc_b: prefix.acc_b + if v == CoreType::Big { used } else { 0 },
                    acc_l: prefix.acc_l + if v == CoreType::Little { used } else { 0 },
                    v,
                    start: s as u32,
                };
                c = compare_cells(c, cand);
                if pruning == Pruning::Aggressive && w <= prefix.pbest {
                    // Crossing rule: more cores cannot lower the period
                    // below the prefix period.
                    break;
                }
            }
        }
    }
    c
}

/// The final value of cell `(j, rb, rl)` — the single source of truth for
/// every table driver. Layer 1 is pure seeds (no prefix exists), `(j, 0, 0)`
/// is infeasible, and everything else goes through the full recurrence.
#[inline]
fn cell_value<G>(
    chain: &TaskChain,
    j: usize,
    rb: usize,
    rl: usize,
    pruning: Pruning,
    get: G,
) -> Cell
where
    G: Fn(usize, usize, usize) -> Cell,
{
    if j == 1 {
        return seed_cell(chain, 1, rb, rl);
    }
    if rb == 0 && rl == 0 {
        return EMPTY_CELL;
    }
    compute_cell(chain, j, rb, rl, pruning, get)
}

/// Reads `S[j][rb][rl]` from a raw cell slice laid out for dimensions
/// `(b, l)`, with the virtual zero row for `j == 0`.
#[inline]
fn read_cell(cells: &[Cell], b: usize, l: usize, j: usize, rb: usize, rl: usize) -> Cell {
    if j == 0 {
        ZERO_CELL
    } else {
        cells[((j - 1) * (b + 1) + rb) * (l + 1) + rl]
    }
}

/// A raw view of the cell table shared by the layer-parallel workers.
struct SharedCells {
    ptr: *mut Cell,
}

// SAFETY: workers write disjoint rows — each `(layer, row)` pair is
// claimed by exactly one worker through the layer's atomic cursor — and
// only read cells published by a happens-before edge: cells of the
// worker's own row (same thread), cells of the row below up to the column
// covered by an acquire load of its progress counter (paired with the
// writer's release store), and cells of earlier layers (separated by the
// layer barrier). `Cell` is `Copy`, so reads never race with drops.
unsafe impl Send for SharedCells {}
unsafe impl Sync for SharedCells {}

/// The DP solution table `S[j][b][l]` with its logical dimensions.
/// The backing vector only grows; every rebuild overwrites the full
/// logical region (all `n·(b+1)·(l+1)` cells, including the infeasible
/// `(j, 0, 0)` column), so stale cells from an earlier, differently-shaped
/// run are never observed — reads stay inside the logical region by
/// construction.
#[derive(Debug, Default)]
struct Table {
    cells: Vec<Cell>,
    n: usize,
    b: usize,
    l: usize,
}

impl Table {
    fn dim_b(&self) -> usize {
        self.b
    }

    fn dim_l(&self) -> usize {
        self.l
    }

    /// Whether the solved region contains the `(n, b, l)` sub-table.
    fn covers(&self, n: usize, b: usize, l: usize) -> bool {
        self.n == n && b <= self.b && l <= self.l
    }

    #[inline]
    fn get(&self, j: usize, rb: usize, rl: usize) -> Cell {
        read_cell(&self.cells, self.b, self.l, j, rb, rl)
    }

    /// `P*(n, B, L)` for a covered pool.
    fn period_at(&self, resources: Resources) -> Ratio {
        let b = usize::try_from(resources.big).expect("core count fits usize");
        let l = usize::try_from(resources.little).expect("core count fits usize");
        self.get(self.n, b, l).pbest.to_ratio()
    }

    /// Solves the full table at exactly `(chain.len(), b, l)`, sequentially
    /// or with the layer-parallel kernel when `workers > 1` (clamped to the
    /// `b + 1` rows of a layer — fewer rows than workers just idles the
    /// surplus at the barrier, so they are not spawned at all).
    fn rebuild(&mut self, chain: &TaskChain, b: usize, l: usize, pruning: Pruning, workers: usize) {
        let n = chain.len();
        let len = n * (b + 1) * (l + 1);
        if self.cells.len() < len {
            self.cells.resize(len, EMPTY_CELL);
        }
        self.n = n;
        self.b = b;
        self.l = l;
        let workers = workers.min(b + 1).max(1);
        if workers > 1 {
            self.run_parallel(chain, pruning, workers);
        } else {
            self.run_sequential(chain, pruning);
        }
    }

    /// The classic driver: layers ascending, rows ascending, columns
    /// ascending — each cell's left/down neighbours and all earlier layers
    /// are final when [`cell_value`] reads them.
    fn run_sequential(&mut self, chain: &TaskChain, pruning: Pruning) {
        let (n, b, l) = (self.n, self.b, self.l);
        for j in 1..=n {
            for rb in 0..=b {
                for rl in 0..=l {
                    let cell = cell_value(chain, j, rb, rl, pruning, |jj, pb, pl| {
                        read_cell(&self.cells, b, l, jj, pb, pl)
                    });
                    let i = ((j - 1) * (b + 1) + rb) * (l + 1) + rl;
                    self.cells[i] = cell;
                }
            }
        }
    }

    /// The layer-parallel kernel: within a layer, workers claim whole
    /// `(rb, ·)` rows from an atomic cursor and pipeline down the columns —
    /// a row waits (acquire) for the row below to pass each column before
    /// computing its own cell, forming a diagonal wavefront that respects
    /// the intra-layer left/down dependencies exactly. A barrier separates
    /// layers, because cells read prefixes from *every* earlier layer.
    /// Cell values and tie-breaks are bit-identical to the sequential
    /// driver: both produce each cell with the same [`cell_value`] call on
    /// the same already-final inputs.
    fn run_parallel(&mut self, chain: &TaskChain, pruning: Pruning, workers: usize) {
        let (n, b, l) = (self.n, self.b, self.l);
        let rows = b + 1;
        // Per-layer row cursor and per-row progress (columns finished);
        // allocated zeroed per run so layers never need a reset phase.
        let cursors: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let progress: Vec<AtomicUsize> = (0..n * rows).map(|_| AtomicUsize::new(0)).collect();
        let barrier = Barrier::new(workers);
        let shared = SharedCells {
            ptr: self.cells.as_mut_ptr(),
        };
        let idx = move |j: usize, rb: usize, rl: usize| ((j - 1) * rows + rb) * (l + 1) + rl;
        let work = || {
            let shared = &shared;
            // SAFETY: reads follow the synchronization protocol documented
            // on `SharedCells`; the indices passed by `cell_value` are
            // exactly the recurrence's dependencies, all published before
            // the wait below lets this cell proceed.
            let get = move |jj: usize, pb: usize, pl: usize| -> Cell {
                if jj == 0 {
                    ZERO_CELL
                } else {
                    unsafe { shared.ptr.add(idx(jj, pb, pl)).read() }
                }
            };
            for j in 1..=n {
                loop {
                    let rb = cursors[j - 1].fetch_add(1, Ordering::Relaxed);
                    if rb >= rows {
                        break;
                    }
                    let mine = &progress[(j - 1) * rows + rb];
                    for rl in 0..=l {
                        if j > 1 && rb > 0 {
                            // Wait for the row below to finalize column rl.
                            let below = &progress[(j - 1) * rows + rb - 1];
                            let mut spins = 0u32;
                            while below.load(Ordering::Acquire) <= rl {
                                spins = spins.wrapping_add(1);
                                if spins.is_multiple_of(64) {
                                    std::thread::yield_now();
                                } else {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                        let cell = cell_value(chain, j, rb, rl, pruning, get);
                        // SAFETY: this worker claimed row `(j, rb)`; nobody
                        // else writes it, and readers only look below the
                        // released progress mark.
                        unsafe { shared.ptr.add(idx(j, rb, rl)).write(cell) };
                        mine.store(rl + 1, Ordering::Release);
                    }
                }
                // Layers j+1.. read prefixes from every cell of layer j.
                barrier.wait();
            }
        };
        crossbeam::thread::scope(|scope| {
            let work = &work;
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        })
        .expect("herad layer-parallel scope");
    }

    /// Pool-delta warm start: extends a solved `(n, b0, l0)` table to
    /// `(n, b, l)` with `b ≥ b0, l ≥ l0`, relaying out the existing rows
    /// and computing only the new cells (`rb > b0` or `rl > l0`). Sound
    /// because cell values are pool-independent (module docs): the old
    /// cells are bit-identical to what a fresh `(b, l)` solve would put at
    /// the same indices, and the delta traversal (layers ascending, rows
    /// ascending, columns ascending within the new region) only reads
    /// final cells.
    fn grow(&mut self, chain: &TaskChain, b: usize, l: usize, pruning: Pruning) {
        let (b0, l0) = (self.b, self.l);
        debug_assert!(b >= b0 && l >= l0, "grow never shrinks");
        debug_assert_eq!(self.n, chain.len(), "grow keeps the chain");
        let n = self.n;
        let len = n * (b + 1) * (l + 1);
        if self.cells.len() < len {
            self.cells.resize(len, EMPTY_CELL);
        }
        // Relayout back to front: destinations are monotonically >= their
        // sources, so processing rows in decreasing (j, rb) order never
        // overwrites a row that has not moved yet.
        for j in (1..=n).rev() {
            for rb in (0..=b0).rev() {
                let src = ((j - 1) * (b0 + 1) + rb) * (l0 + 1);
                let dst = ((j - 1) * (b + 1) + rb) * (l + 1);
                if src != dst {
                    self.cells.copy_within(src..=src + l0, dst);
                }
            }
        }
        self.b = b;
        self.l = l;
        for j in 1..=n {
            for rb in 0..=b {
                let first_new = if rb > b0 { 0 } else { l0 + 1 };
                for rl in first_new..=l {
                    let cell = cell_value(chain, j, rb, rl, pruning, |jj, pb, pl| {
                        read_cell(&self.cells, b, l, jj, pb, pl)
                    });
                    let i = ((j - 1) * (b + 1) + rb) * (l + 1) + rl;
                    self.cells[i] = cell;
                }
            }
        }
    }

    /// `ExtractSolution` (Algorithm 11): walks the matrix backwards from
    /// `S[n][B][L]`, reconstructing each stage's interval, core type and
    /// core count (from the difference of accumulated usages) into the
    /// caller's buffer. The pool may be any the table covers — the walk
    /// only visits cells with indices `≤ (B, L)`. Returns `false` (buffer
    /// left empty) when the instance is infeasible.
    fn extract_into(
        &self,
        chain: &TaskChain,
        resources: Resources,
        stages: &mut Vec<Stage>,
    ) -> bool {
        stages.clear();
        let n = chain.len();
        let mut rb = usize::try_from(resources.big).expect("core count fits usize");
        let mut rl = usize::try_from(resources.little).expect("core count fits usize");
        let final_cell = self.get(n, rb, rl);
        if final_cell.pbest.is_infinite() {
            return false;
        }
        let mut e = n;
        while e >= 1 {
            let cell = self.get(e, rb, rl);
            debug_assert!(cell.pbest.is_finite());
            let start = cell.start as usize;
            let (mut ub, mut ul) = (cell.acc_b, cell.acc_l);
            let (pb, pl) = (cell.prev_b as usize, cell.prev_l as usize);
            if start > 0 {
                let prefix = self.get(start, pb, pl);
                ub -= prefix.acc_b;
                ul -= prefix.acc_l;
            }
            let r = match cell.v {
                CoreType::Big => ub,
                CoreType::Little => ul,
            };
            debug_assert!(r >= 1, "stage with zero cores during extraction");
            stages.push(Stage::new(start, e - 1, u64::from(r), cell.v));
            e = start;
            rb = pb;
            rl = pl;
        }
        stages.reverse();
        true
    }
}

/// Decoding a serialized [`ChainTable`] failed. Every variant is a clean
/// rejection: callers treat the table as absent (a cache miss), never as
/// a half-loaded answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainTableError {
    /// The input is not canonical JSON.
    Parse {
        /// Byte offset into the input where parsing failed.
        offset: usize,
        /// Parser diagnostic.
        message: String,
    },
    /// The document parses but carries an unknown `kind`/`version`/
    /// `pruning` header — written by a different (possibly future) build.
    Version {
        /// The offending header value, e.g. `"version 2"`.
        found: String,
    },
    /// The document parses and the header matches, but the payload is
    /// inconsistent: wrong cell count, unparseable cell, checksum
    /// mismatch, empty chain.
    Malformed {
        /// What was inconsistent.
        message: String,
    },
}

impl std::fmt::Display for ChainTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainTableError::Parse { offset, message } => {
                write!(f, "chain table parse error at byte {offset}: {message}")
            }
            ChainTableError::Version { found } => {
                write!(f, "chain table version mismatch: {found}")
            }
            ChainTableError::Malformed { message } => {
                write!(f, "chain table malformed: {message}")
            }
        }
    }
}

impl std::error::Error for ChainTableError {}

/// Header constants for the serialized form. Bump `FORMAT_VERSION` on any
/// incompatible layout change; old snapshots then load as clean misses.
const CHAIN_TABLE_KIND: &str = "amp-chain-table";
const CHAIN_TABLE_VERSION: u64 = 1;

/// FNV-1a over a byte slice, continuing from `h` (offset basis
/// `0xcbf2_9ce4_8422_2325`).
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// How [`Herad::fill`] brought a [`ChainTable`] to cover a chain and pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableFill {
    /// The table already covered the pool: pure extraction, no DP work.
    Extracted,
    /// The table grew by the pool delta first.
    Grown,
    /// The table held another chain or pruning, or none at all, or
    /// growing it would pass [`MAX_TABLE_CELLS`]: a full rebuild at
    /// exactly the requested pool.
    Cold,
}

/// A solved HeRAD DP table keyed by the chain and the pruning that
/// solved it. [`Herad::fill`] is the one way to fill it: a covered
/// sub-pool answers by pure extraction (see the module docs on pool
/// independence), a larger pool grows the table in place by the pool
/// delta, and a new chain rebuilds it in its own buffers. Every
/// [`SchedScratch`] holds one for HeRAD's warm solves; the service's
/// solve-once tier keeps one per distinct `(weights, replicability)`
/// vector, and a running pipeline one for its re-solves. Tables round-trip
/// through canonical JSON ([`ChainTable::to_json`] /
/// [`ChainTable::from_json`]) for snapshot persistence.
///
/// The default table is empty and matches no chain.
#[derive(Debug, Default)]
pub struct ChainTable {
    /// The chain key: `(weight_big, weight_little, replicable)` per task.
    /// Empty while a fill mutates the cells, so an interrupted fill
    /// leaves a table that matches no chain (a chain is never empty).
    tasks: Vec<(u64, u64, bool)>,
    /// The rest of the key: the pruning the cells were solved with.
    pruning: Pruning,
    table: Table,
}

impl ChainTable {
    /// Solves the chain cold at exactly `resources` with [`Herad::new`]
    /// (aggressive pruning; sequential below the cell threshold,
    /// layer-parallel above it).
    #[must_use]
    pub fn solve(chain: &TaskChain, resources: Resources) -> ChainTable {
        let mut table = ChainTable::default();
        Herad::new().fill(&mut table, chain, resources);
        table
    }

    /// Whether this table was solved for exactly this chain (weights and
    /// replicability; names are ignored, as in scheduling itself).
    #[must_use]
    pub fn matches(&self, chain: &TaskChain) -> bool {
        self.tasks.len() == chain.len()
            && self
                .tasks
                .iter()
                .zip(chain.tasks())
                .all(|(&(wb, wl, rep), t)| {
                    wb == t.weight_big && wl == t.weight_little && rep == t.replicable
                })
    }

    /// Whether the solved region already contains this pool (extraction
    /// needs no growth).
    #[must_use]
    pub fn covers(&self, resources: Resources) -> bool {
        let b = usize::try_from(resources.big).expect("core count fits usize");
        let l = usize::try_from(resources.little).expect("core count fits usize");
        self.table.covers(self.tasks.len(), b, l)
    }

    /// Extends the solved region to cover `resources` by a pool-delta
    /// grow under the table's own pruning: dimensions only grow, unless
    /// growing would pass [`MAX_TABLE_CELLS`] and [`Herad::fill`] rebuilds
    /// at `resources` instead. The caller must pass the same chain the
    /// table was solved for.
    pub fn grow_to(&mut self, chain: &TaskChain, resources: Resources) {
        debug_assert!(self.matches(chain), "grow_to keeps the chain");
        Herad::with_pruning(self.pruning).fill(self, chain, resources);
    }

    /// Extracts the schedule for any covered sub-pool into `out`,
    /// bit-identical to a fresh solve at that pool with the table's
    /// pruning (extraction walk + replicable-stage merge). Returns `false`
    /// with an empty solution when the pool is exhausted or the instance
    /// is infeasible on it.
    pub fn extract(&self, chain: &TaskChain, resources: Resources, out: &mut Solution) -> bool {
        debug_assert!(self.matches(chain), "extract keeps the chain");
        debug_assert!(self.covers(resources), "extract needs a covered pool");
        out.stages_mut().clear();
        if resources.is_exhausted() {
            return false;
        }
        let feasible = self.table.extract_into(chain, resources, out.stages_mut());
        if feasible {
            out.merge_replicable_stages_in_place(chain);
        }
        feasible
    }

    /// `P*(n, B, L)` for a covered pool; `None` when infeasible there.
    #[must_use]
    pub fn period_at(&self, resources: Resources) -> Option<Ratio> {
        debug_assert!(self.covers(resources), "period_at needs a covered pool");
        if resources.is_exhausted() {
            return None;
        }
        let p = self.table.period_at(resources);
        p.is_finite().then_some(p)
    }

    /// The solved dimensions `(dim_b, dim_l)` — every pool with
    /// `big ≤ dim_b` and `little ≤ dim_l` is covered.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.table.dim_b(), self.table.dim_l())
    }

    /// The chain key this table answers for, as
    /// `(weight_big, weight_little, replicable)` per task.
    #[must_use]
    pub fn tasks(&self) -> &[(u64, u64, bool)] {
        &self.tasks
    }

    /// Approximate heap footprint of the logical cell region, for cache
    /// accounting.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.tasks.len() * (self.table.dim_b() + 1) * (self.table.dim_l() + 1)
    }

    /// One task as its canonical string form `"wb,wl,0|1"`.
    fn encode_task(wb: u64, wl: u64, rep: bool) -> String {
        format!("{wb},{wl},{}", u8::from(rep))
    }

    /// One cell as its canonical string form
    /// `"pbest,prev_b,prev_l,acc_b,acc_l,v,start"`, with `pbest` the exact
    /// raw `num/den` (or `inf`) and `v` one of `B`/`L`. Strings keep the
    /// codec float-free and carry the rational exactly.
    fn encode_cell(cell: &Cell) -> String {
        let pbest = if cell.pbest.is_infinite() {
            "inf".to_string()
        } else {
            format!("{}/{}", cell.pbest.num, cell.pbest.den)
        };
        let v = match cell.v {
            CoreType::Big => 'B',
            CoreType::Little => 'L',
        };
        format!(
            "{pbest},{},{},{},{},{v},{}",
            cell.prev_b, cell.prev_l, cell.acc_b, cell.acc_l, cell.start
        )
    }

    fn decode_cell(text: &str) -> Result<Cell, ChainTableError> {
        let malformed = |msg: &str| ChainTableError::Malformed {
            message: format!("{msg} in cell {text:?}"),
        };
        let mut parts = text.split(',');
        let mut next = |what: &'static str| {
            parts
                .next()
                .ok_or_else(|| malformed(&format!("missing {what}")))
        };
        let pbest_text = next("pbest")?;
        let pbest = if pbest_text == "inf" {
            Period::INFINITY
        } else {
            // Every period the DP writes has u64 parts; a larger one was
            // never written by the encoder.
            let (num, den) = pbest_text
                .split_once('/')
                .ok_or_else(|| malformed("pbest is not num/den"))?;
            let num: u64 = num
                .parse()
                .map_err(|_| malformed("numerator is not a u64"))?;
            let den: u64 = den
                .parse()
                .map_err(|_| malformed("denominator is not a u64"))?;
            if den == 0 {
                return Err(malformed("zero denominator"));
            }
            Period { num, den }
        };
        let parse_u32 = |text: &str| -> Result<u32, ChainTableError> {
            text.parse().map_err(|_| malformed("bad counter"))
        };
        let prev_b = parse_u32(next("prev_b")?)?;
        let prev_l = parse_u32(next("prev_l")?)?;
        let acc_b = parse_u32(next("acc_b")?)?;
        let acc_l = parse_u32(next("acc_l")?)?;
        let v = match next("core type")? {
            "B" => CoreType::Big,
            "L" => CoreType::Little,
            _ => return Err(malformed("bad core type")),
        };
        let start = parse_u32(next("start")?)?;
        if parts.next().is_some() {
            return Err(malformed("trailing fields"));
        }
        Ok(Cell {
            pbest,
            prev_b,
            prev_l,
            acc_b,
            acc_l,
            v,
            start,
        })
    }

    /// Content checksum over the canonical task and cell strings plus the
    /// dimensions — catches payloads that parse but were corrupted.
    fn checksum(tasks: &[String], dim_b: usize, dim_l: usize, cells: &[String]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        fnv1a(&mut h, &(tasks.len() as u64).to_le_bytes());
        fnv1a(&mut h, &(dim_b as u64).to_le_bytes());
        fnv1a(&mut h, &(dim_l as u64).to_le_bytes());
        for t in tasks {
            fnv1a(&mut h, t.as_bytes());
            fnv1a(&mut h, b";");
        }
        for c in cells {
            fnv1a(&mut h, c.as_bytes());
            fnv1a(&mut h, b";");
        }
        h
    }

    /// Serializes the full solved region as a canonical-JSON document with
    /// a versioned header naming the table's pruning and a content
    /// checksum. Floats never appear: the exact rationals travel as
    /// `num/den` strings.
    #[must_use]
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let (b, l) = (self.table.dim_b(), self.table.dim_l());
        let n = self.tasks.len();
        let tasks: Vec<String> = self
            .tasks
            .iter()
            .map(|&(wb, wl, rep)| Self::encode_task(wb, wl, rep))
            .collect();
        let mut cells = Vec::with_capacity(n * (b + 1) * (l + 1));
        for j in 1..=n {
            for rb in 0..=b {
                for rl in 0..=l {
                    cells.push(Self::encode_cell(&self.table.get(j, rb, rl)));
                }
            }
        }
        let checksum = Self::checksum(&tasks, b, l, &cells);
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("kind".to_string(), Json::Str(CHAIN_TABLE_KIND.to_string()));
        obj.insert("version".to_string(), Json::Int(CHAIN_TABLE_VERSION));
        let pruning = match self.pruning {
            Pruning::None => "none",
            Pruning::Lossless => "lossless",
            Pruning::Aggressive => "aggressive",
        };
        obj.insert("pruning".to_string(), Json::Str(pruning.to_string()));
        obj.insert("dim_b".to_string(), Json::Int(b as u64));
        obj.insert("dim_l".to_string(), Json::Int(l as u64));
        obj.insert(
            "tasks".to_string(),
            Json::Arr(tasks.into_iter().map(Json::Str).collect()),
        );
        obj.insert(
            "cells".to_string(),
            Json::Arr(cells.into_iter().map(Json::Str).collect()),
        );
        obj.insert("checksum".to_string(), Json::Int(checksum));
        Json::Obj(obj)
    }

    /// Decodes a document produced by [`ChainTable::to_json`], validating
    /// the header (only `aggressive` tables load), the payload shape, the
    /// content checksum and every cell's back-pointers (see
    /// `check_back_pointers`). Any inconsistency is a typed
    /// [`ChainTableError`]; a decoded table is fully usable (extraction,
    /// growth, re-serialization).
    pub fn from_json(doc: &crate::json::Json) -> Result<ChainTable, ChainTableError> {
        let malformed = |message: &str| ChainTableError::Malformed {
            message: message.to_string(),
        };
        let obj = doc
            .as_obj()
            .ok_or_else(|| malformed("document is not an object"))?;
        let kind = obj
            .get("kind")
            .and_then(|k| k.as_str())
            .ok_or_else(|| malformed("missing kind"))?;
        if kind != CHAIN_TABLE_KIND {
            return Err(ChainTableError::Version {
                found: format!("kind {kind:?}"),
            });
        }
        let version = obj
            .get("version")
            .and_then(crate::json::Json::as_int)
            .ok_or_else(|| malformed("missing version"))?;
        if version != CHAIN_TABLE_VERSION {
            return Err(ChainTableError::Version {
                found: format!("version {version}"),
            });
        }
        let pruning = obj
            .get("pruning")
            .and_then(|p| p.as_str())
            .ok_or_else(|| malformed("missing pruning"))?;
        if pruning != "aggressive" {
            return Err(ChainTableError::Version {
                found: format!("pruning {pruning:?}"),
            });
        }
        let dim_b = obj
            .get("dim_b")
            .and_then(crate::json::Json::as_int)
            .ok_or_else(|| malformed("missing dim_b"))?;
        let dim_l = obj
            .get("dim_l")
            .and_then(crate::json::Json::as_int)
            .ok_or_else(|| malformed("missing dim_l"))?;
        let b = usize::try_from(dim_b).map_err(|_| malformed("dim_b overflows"))?;
        let l = usize::try_from(dim_l).map_err(|_| malformed("dim_l overflows"))?;
        let task_strings: Vec<String> = obj
            .get("tasks")
            .and_then(crate::json::Json::as_arr)
            .ok_or_else(|| malformed("missing tasks"))?
            .iter()
            .map(|t| {
                t.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| malformed("task is not a string"))
            })
            .collect::<Result<_, _>>()?;
        if task_strings.is_empty() {
            return Err(malformed("empty chain"));
        }
        let cell_strings: Vec<String> = obj
            .get("cells")
            .and_then(crate::json::Json::as_arr)
            .ok_or_else(|| malformed("missing cells"))?
            .iter()
            .map(|c| {
                c.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| malformed("cell is not a string"))
            })
            .collect::<Result<_, _>>()?;
        let n = task_strings.len();
        let expected = n
            .checked_mul(b + 1)
            .and_then(|x| x.checked_mul(l + 1))
            .ok_or_else(|| malformed("cell count overflows"))?;
        if cell_strings.len() != expected {
            return Err(malformed(&format!(
                "expected {expected} cells for {n} tasks at ({b}, {l}), found {}",
                cell_strings.len()
            )));
        }
        let checksum = obj
            .get("checksum")
            .and_then(crate::json::Json::as_int)
            .ok_or_else(|| malformed("missing checksum"))?;
        let computed = Self::checksum(&task_strings, b, l, &cell_strings);
        if checksum != computed {
            return Err(malformed("checksum mismatch"));
        }
        let tasks: Vec<(u64, u64, bool)> = task_strings
            .iter()
            .map(|t| {
                let bad = || malformed(&format!("bad task {t:?}"));
                let mut parts = t.split(',');
                let wb: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let wl: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                let rep = match parts.next().ok_or_else(bad)? {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
                if parts.next().is_some() {
                    return Err(bad());
                }
                Ok((wb, wl, rep))
            })
            .collect::<Result<_, _>>()?;
        let cells: Vec<Cell> = cell_strings
            .iter()
            .map(|c| Self::decode_cell(c))
            .collect::<Result<_, _>>()?;
        let table = Table { cells, n, b, l };
        Self::check_back_pointers(&table).map_err(|message| malformed(&message))?;
        Ok(ChainTable {
            tasks,
            pruning: Pruning::Aggressive,
            table,
        })
    }

    /// Checks that extraction from any covered pool stays inside the
    /// table and ends: every finite cell `(j, rb, rl)` starts its last
    /// stage in an earlier layer (`start < j`) at no more cores
    /// (`prev_b ≤ rb`, `prev_l ≤ rl`), its prefix cell is finite with no
    /// larger core usage, and its last stage has at least one core. The
    /// DP writes no other cells; the checksum cannot catch a forged one,
    /// because anyone can recompute it.
    fn check_back_pointers(table: &Table) -> Result<(), String> {
        for j in 1..=table.n {
            for rb in 0..=table.b {
                for rl in 0..=table.l {
                    let cell = table.get(j, rb, rl);
                    if cell.pbest.is_infinite() {
                        continue;
                    }
                    let (start, pb, pl) = (
                        cell.start as usize,
                        cell.prev_b as usize,
                        cell.prev_l as usize,
                    );
                    if start >= j || pb > rb || pl > rl {
                        return Err(format!("cell ({j}, {rb}, {rl}) points past its prefix"));
                    }
                    // `start == 0` reads the virtual zero row: no cores.
                    let prefix = table.get(start, pb, pl);
                    if prefix.pbest.is_infinite()
                        || prefix.acc_b > cell.acc_b
                        || prefix.acc_l > cell.acc_l
                    {
                        return Err(format!("cell ({j}, {rb}, {rl}) has an inconsistent prefix"));
                    }
                    let cores = match cell.v {
                        CoreType::Big => cell.acc_b - prefix.acc_b,
                        CoreType::Little => cell.acc_l - prefix.acc_l,
                    };
                    if cores == 0 {
                        return Err(format!("cell ({j}, {rb}, {rl}) has a stage with no cores"));
                    }
                }
            }
        }
        Ok(())
    }

    /// [`ChainTable::to_json`] rendered compactly.
    #[must_use]
    pub fn render(&self) -> String {
        self.to_json().render_compact()
    }

    /// Parses text straight into a table ([`crate::json::Json::parse`] +
    /// [`ChainTable::from_json`]).
    pub fn parse(text: &str) -> Result<ChainTable, ChainTableError> {
        let doc = crate::json::Json::parse(text).map_err(|e| ChainTableError::Parse {
            offset: e.offset,
            message: e.message,
        })?;
        Self::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Task;

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(3, 6, false),
            Task::new(2, 4, true),
            Task::new(4, 8, true),
            Task::new(6, 12, true),
            Task::new(1, 2, false),
        ])
    }

    #[test]
    fn produces_structurally_valid_schedules() {
        let c = chain();
        for (b, l) in [(1, 0), (0, 1), (2, 2), (4, 4), (1, 7), (7, 1)] {
            let r = Resources::new(b, l);
            let s = Herad::new().schedule(&c, r).unwrap();
            assert!(s.validate(&c).is_ok(), "invalid for {r}: {s}");
            let used = s.used_cores();
            assert!(used.big <= b && used.little <= l, "overuse for {r}: {s}");
        }
    }

    #[test]
    fn no_cores_means_no_schedule() {
        assert!(Herad::new()
            .schedule(&chain(), Resources::new(0, 0))
            .is_none());
        assert!(Herad::new()
            .optimal_period(&chain(), Resources::new(0, 0))
            .is_none());
    }

    #[test]
    fn optimal_on_hand_checked_instances() {
        let c = chain();
        // big-only with 3 cores: exhaustive optimum is 7 (see binary_search
        // tests); HeRAD restricted to big cores must match.
        let p = Herad::new()
            .optimal_period(&c, Resources::new(3, 0))
            .unwrap();
        assert_eq!(p, Ratio::from_int(7));
        // little-only with 3 cores: optimum 14.
        let p = Herad::new()
            .optimal_period(&c, Resources::new(0, 3))
            .unwrap();
        assert_eq!(p, Ratio::from_int(14));
        // 2 big + 2 little: stage [0..1] on big (5), [2..3] replicated on
        // big? only 2B available: e.g. [0,1]B=5, [2,3] needs 10/1... the
        // optimum is 6: [0..2]B? = 9. Let the three pruning modes agree and
        // be <= any single-type optimum instead of hand-computing.
        let p = Herad::new()
            .optimal_period(&c, Resources::new(2, 2))
            .unwrap();
        assert!(p <= Ratio::from_int(7));
    }

    #[test]
    fn pruning_modes_agree() {
        let c = chain();
        for (b, l) in [(1, 1), (2, 2), (3, 1), (1, 3), (4, 4), (3, 0), (0, 3)] {
            let r = Resources::new(b, l);
            let none = Herad::with_pruning(Pruning::None).schedule(&c, r).unwrap();
            let lossless = Herad::with_pruning(Pruning::Lossless)
                .schedule(&c, r)
                .unwrap();
            let aggressive = Herad::with_pruning(Pruning::Aggressive)
                .schedule(&c, r)
                .unwrap();
            assert_eq!(
                none.period(&c),
                lossless.period(&c),
                "lossless differs at {r}"
            );
            assert_eq!(
                none.period(&c),
                aggressive.period(&c),
                "aggressive differs at {r}"
            );
            assert_eq!(
                none.used_cores(),
                lossless.used_cores(),
                "lossless tie-break differs at {r}"
            );
        }
    }

    #[test]
    fn single_task_base_case() {
        // Lemma 1: P*(1, b, l) picks the faster type, ties to little.
        let fast_big = TaskChain::new(vec![Task::new(2, 5, true)]);
        let s = Herad::new()
            .schedule(&fast_big, Resources::new(2, 2))
            .unwrap();
        assert_eq!(s.period(&fast_big), Ratio::from_int(1)); // 2/2 on big
        assert_eq!(s.stages()[0].core_type, CoreType::Big);

        let tie = TaskChain::new(vec![Task::new(4, 4, true)]);
        let s = Herad::new().schedule(&tie, Resources::new(2, 2)).unwrap();
        assert_eq!(s.period(&tie), Ratio::from_int(2));
        assert_eq!(
            s.stages()[0].core_type,
            CoreType::Little,
            "ties must favour little cores"
        );
    }

    #[test]
    fn merges_consecutive_replicable_stages() {
        // All-replicable chain: after merging, a single replicated stage
        // per core type at most.
        let c = TaskChain::new(vec![
            Task::new(10, 20, true),
            Task::new(10, 20, true),
            Task::new(10, 20, true),
        ]);
        let s = Herad::new().schedule(&c, Resources::new(3, 0)).unwrap();
        assert_eq!(s.num_stages(), 1);
        assert_eq!(s.period(&c), Ratio::from_int(10));
    }

    #[test]
    fn scratch_reuse_across_shrinking_and_growing_shapes_matches_fresh() {
        // One shared scratch across instances whose (n, B, L) shrink and
        // grow between calls: stale DP cells from a larger run must never
        // leak into a smaller one — every warm answer is bit-identical to
        // a fresh allocating solve.
        let wide = TaskChain::new(vec![
            Task::new(5, 5, true),
            Task::new(3, 9, false),
            Task::new(8, 8, true),
            Task::new(2, 7, true),
            Task::new(6, 6, false),
            Task::new(1, 4, true),
            Task::new(9, 9, true),
        ]);
        let tiny = TaskChain::new(vec![Task::new(7, 9, true)]);
        let unit = TaskChain::new(vec![Task::new(1, 1, false)]);
        let shapes: Vec<(&TaskChain, Resources)> = vec![
            (&wide, Resources::new(4, 4)), // big table
            (&tiny, Resources::new(1, 1)), // n shrinks 7 -> 1
            (&wide, Resources::new(1, 0)), // pool shrinks to (1, 0)
            (&wide, Resources::new(6, 2)), // pool grows past the first shape
            (&unit, Resources::new(0, 1)), // everything shrinks at once
            (&unit, Resources::new(0, 0)), // infeasible in between
            (&wide, Resources::new(4, 4)), // back to the big shape
        ];
        for pruning in [Pruning::None, Pruning::Lossless, Pruning::Aggressive] {
            let mut scratch = SchedScratch::new();
            let mut out = Solution::empty();
            for &(c, r) in &shapes {
                let herad = Herad::with_pruning(pruning);
                let warm = herad
                    .schedule_into(c, r, &mut scratch, &mut out)
                    .then(|| out.clone());
                assert_eq!(
                    warm,
                    herad.schedule(c, r),
                    "warm {pruning:?} diverges from fresh at {r}"
                );
                assert_eq!(
                    herad.optimal_period_with(c, r, &mut scratch),
                    herad.optimal_period(c, r),
                    "warm optimal_period diverges at {r}"
                );
            }
        }
    }

    #[test]
    fn replay_memo_never_hits_on_near_miss_instances() {
        // Each instance differs from the previous one in exactly one
        // component of the memo key (a weight, the replicable flag, the
        // pool, the pruning); every warm answer must match a fresh solve,
        // i.e. the memo must detect the difference and recompute.
        let base = vec![
            Task::new(3, 6, false),
            Task::new(2, 4, true),
            Task::new(4, 8, true),
        ];
        let mut bumped_weight = base.clone();
        bumped_weight[1].weight_little += 1;
        let mut flipped_rep = base.clone();
        flipped_rep[2].replicable = false;
        let chains = [
            TaskChain::new(base.clone()),
            TaskChain::new(bumped_weight),
            TaskChain::new(flipped_rep),
            TaskChain::new(base),
        ];
        let mut scratch = SchedScratch::new();
        let mut out = Solution::empty();
        for pruning in [Pruning::Aggressive, Pruning::Lossless] {
            for chain in &chains {
                for r in [Resources::new(2, 2), Resources::new(2, 1)] {
                    let herad = Herad::with_pruning(pruning);
                    let warm = herad
                        .schedule_into(chain, r, &mut scratch, &mut out)
                        .then(|| out.clone());
                    assert_eq!(warm, herad.schedule(chain, r), "memo leaked at {r}");
                }
            }
        }
    }

    #[test]
    fn replay_memo_ignores_task_names() {
        // Scheduling depends only on weights and replicability, so the
        // memo key deliberately drops names: a renamed copy of the same
        // chain may replay, and the replay must equal its fresh solve.
        let mut named = vec![Task::new(5, 9, true), Task::new(2, 2, false)];
        named[0].name = "acquire".into();
        named[1].name = "decode".into();
        let anon = TaskChain::new(vec![Task::new(5, 9, true), Task::new(2, 2, false)]);
        let named = TaskChain::new(named);
        let r = Resources::new(2, 2);
        let mut scratch = SchedScratch::new();
        let mut out = Solution::empty();
        assert!(Herad::new().schedule_into(&anon, r, &mut scratch, &mut out));
        assert!(Herad::new().schedule_into(&named, r, &mut scratch, &mut out));
        assert_eq!(Some(out.clone()), Herad::new().schedule(&named, r));
    }

    #[test]
    fn repeated_warm_solves_are_stable() {
        let c = chain();
        let r = Resources::new(3, 2);
        let cold = Herad::new().schedule(&c, r).unwrap();
        let mut scratch = SchedScratch::new();
        let mut out = Solution::empty();
        for _ in 0..5 {
            assert!(Herad::new().schedule_into(&c, r, &mut scratch, &mut out));
            assert_eq!(out, cold);
        }
    }

    #[test]
    fn secondary_objective_prefers_little_cores() {
        // Two equal replicable tasks; 30 on big, 30 on little. One big core
        // or one little core both give period 60; little must win.
        let c = TaskChain::new(vec![Task::new(30, 30, true), Task::new(30, 30, true)]);
        let s = Herad::new().schedule(&c, Resources::new(1, 1)).unwrap();
        let used = s.used_cores();
        assert!(
            used.little >= used.big,
            "expected little-core preference, got {s}"
        );
    }

    #[test]
    fn forced_parallel_matches_sequential_bit_for_bit() {
        // The layer-parallel kernel must agree with the sequential driver
        // on periods, decompositions and tie-break core usage — for every
        // pruning mode and worker count, including more workers than rows.
        let chains = [
            chain(),
            TaskChain::new(vec![Task::new(7, 7, true); 9]),
            TaskChain::new(
                (0..11)
                    .map(|i| Task::new(1 + i % 5, 2 + (i * 3) % 7, i % 3 != 0))
                    .collect(),
            ),
        ];
        for c in &chains {
            for (b, l) in [(4, 4), (6, 1), (1, 6), (5, 0), (0, 5), (3, 3)] {
                let r = Resources::new(b, l);
                for pruning in [Pruning::None, Pruning::Lossless, Pruning::Aggressive] {
                    let seq = Herad::with_pruning(pruning).schedule(c, r);
                    for workers in [2, 3, 8] {
                        let par =
                            Herad::with_pruning_and_parallelism(pruning, workers).schedule(c, r);
                        assert_eq!(
                            par, seq,
                            "parallel({workers}) diverges at {r} with {pruning:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forced_parallel_handles_degenerate_shapes() {
        let single = TaskChain::new(vec![Task::new(5, 9, true)]);
        let sequential_only = TaskChain::new(vec![
            Task::new(3, 4, false),
            Task::new(2, 2, false),
            Task::new(6, 7, false),
        ]);
        for c in [&single, &sequential_only] {
            for (b, l) in [(0, 1), (1, 0), (1, 1), (0, 3), (3, 0), (2, 5)] {
                let r = Resources::new(b, l);
                let seq = Herad::new().schedule(c, r);
                assert_eq!(Herad::with_parallelism(8).schedule(c, r), seq, "at {r}");
            }
        }
        // Empty pool stays infeasible through the parallel constructor.
        assert!(Herad::with_parallelism(4)
            .schedule(&single, Resources::new(0, 0))
            .is_none());
    }

    #[test]
    fn pool_delta_sweep_matches_fresh_in_any_order() {
        // One scratch across a (b, l) grid visited ascending, descending
        // and shuffled: every incremental solve (sub-table extraction or
        // pool-delta grow) must be bit-identical to a fresh solve.
        let c = chain();
        let mut grid: Vec<(u64, u64)> = (0..=4u64)
            .flat_map(|b| (0..=4u64).map(move |l| (b, l)))
            .collect();
        let ascending = grid.clone();
        let descending: Vec<_> = grid.iter().rev().copied().collect();
        // Deterministic LCG shuffle stands in for "random order".
        let mut state = 0x9e37_79b9_u64;
        for i in (1..grid.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            grid.swap(i, j);
        }
        for pruning in [Pruning::None, Pruning::Lossless, Pruning::Aggressive] {
            for order in [&ascending, &descending, &grid] {
                let herad = Herad::with_pruning(pruning);
                let mut scratch = SchedScratch::new();
                let mut out = Solution::empty();
                for &(b, l) in order {
                    let r = Resources::new(b, l);
                    let warm = herad
                        .schedule_into(&c, r, &mut scratch, &mut out)
                        .then(|| out.clone());
                    assert_eq!(
                        warm,
                        herad.schedule(&c, r),
                        "sweep diverges at {r} with {pruning:?}"
                    );
                    assert_eq!(
                        herad.optimal_period_with(&c, r, &mut scratch),
                        herad.optimal_period(&c, r),
                        "sweep period diverges at {r} with {pruning:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_memo_extracts_without_recompute_for_covered_pools() {
        // After solving at (4, 4), every sub-pool solve must reuse the
        // table: the memo stays keyed to the chain and the table keeps its
        // (4, 4) dimensions (a rebuild would have shrunk them).
        let c = chain();
        let herad = Herad::new();
        let mut scratch = SchedScratch::new();
        let mut out = Solution::empty();
        assert!(herad.schedule_into(&c, Resources::new(4, 4), &mut scratch, &mut out));
        for (b, l) in [(1, 1), (4, 0), (0, 4), (2, 3), (4, 4)] {
            assert!(herad.schedule_into(&c, Resources::new(b, l), &mut scratch, &mut out));
            assert_eq!(
                scratch.herad_table.table.dim_b(),
                4,
                "table shrank at ({b},{l})"
            );
            assert_eq!(
                scratch.herad_table.table.dim_l(),
                4,
                "table shrank at ({b},{l})"
            );
        }
        // A pool outside the table grows it monotonically (never shrinks).
        assert!(herad.schedule_into(&c, Resources::new(6, 2), &mut scratch, &mut out));
        assert_eq!(scratch.herad_table.table.dim_b(), 6);
        assert_eq!(scratch.herad_table.table.dim_l(), 4);
    }

    #[test]
    fn fill_keys_the_table_by_chain_and_pruning_and_unwinds_unkeyed() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let c = chain();
        let herad = Herad::new();
        let mut table = ChainTable::default();
        assert_eq!(
            herad.fill(&mut table, &c, Resources::new(2, 2)),
            TableFill::Cold
        );
        assert_eq!(
            herad.fill(&mut table, &c, Resources::new(1, 2)),
            TableFill::Extracted
        );
        assert_eq!(
            herad.fill(&mut table, &c, Resources::new(3, 1)),
            TableFill::Grown
        );
        assert_eq!(table.dims(), (3, 2));
        // Another pruning is another key, and the document names it; only
        // aggressive tables load.
        let lossless = Herad::with_pruning(Pruning::Lossless);
        assert_eq!(
            lossless.fill(&mut table, &c, Resources::new(2, 2)),
            TableFill::Cold
        );
        assert!(table.render().contains("\"pruning\":\"lossless\""));
        assert!(matches!(
            ChainTable::parse(&table.render()),
            Err(ChainTableError::Version { .. })
        ));
        assert_eq!(
            herad.fill(&mut table, &c, Resources::new(2, 2)),
            TableFill::Cold
        );
        // A panic before an extraction leaves the table keyed; one inside
        // a grow leaves it matching no chain, so the next fill rebuilds.
        let fill_panicking = |table: &mut ChainTable, r: Resources| {
            catch_unwind(AssertUnwindSafe(|| {
                herad.fill_with(table, &c, r, |_| panic!("fault before the fill acts"))
            }))
        };
        assert!(fill_panicking(&mut table, Resources::new(1, 1)).is_err());
        assert!(table.matches(&c));
        assert!(fill_panicking(&mut table, Resources::new(4, 4)).is_err());
        assert!(!table.matches(&c));
        assert_eq!(
            herad.fill(&mut table, &c, Resources::new(4, 4)),
            TableFill::Cold
        );
        let mut out = Solution::empty();
        let r = Resources::new(4, 3);
        let warm = table.extract(&c, r, &mut out).then(|| out.clone());
        assert_eq!(warm, herad.schedule(&c, r));
    }

    /// Two skewed pools of one chain would grow the table to their union,
    /// `2·2001²` cells; past the bound the fill rebuilds at the second
    /// pool instead, and answers as a fresh solve does.
    #[test]
    fn skewed_pools_rebuild_instead_of_growing_past_the_cell_bound() {
        let c = TaskChain::new(vec![Task::new(3, 5, true), Task::new(2, 4, false)]);
        let herad = Herad::new();
        let mut table = ChainTable::default();
        let mut out = Solution::empty();
        for (r, how) in [
            (Resources::new(2000, 0), TableFill::Cold),
            (Resources::new(0, 2000), TableFill::Cold),
        ] {
            assert_eq!(herad.fill(&mut table, &c, r), how, "fill at {r}");
            assert!(table.cell_count() <= MAX_TABLE_CELLS, "{:?}", table.dims());
            let warm = table.extract(&c, r, &mut out).then(|| out.clone());
            assert_eq!(warm, herad.schedule(&c, r), "diverges at {r}");
        }
        assert_eq!(table.dims(), (0, 2000));
        assert_eq!(table_cells(2, Resources::new(u64::MAX, 0)), None);
    }

    #[test]
    fn chain_table_extracts_every_covered_pool_bit_identically() {
        let c = chain();
        let mut table = ChainTable::solve(&c, Resources::new(2, 1));
        assert!(table.matches(&c));
        // Grow through a few pools, then extract the full grid.
        table.grow_to(&c, Resources::new(4, 3));
        table.grow_to(&c, Resources::new(3, 4));
        assert_eq!(table.dims(), (4, 4));
        let mut out = Solution::empty();
        for b in 0..=4u64 {
            for l in 0..=4u64 {
                let r = Resources::new(b, l);
                assert!(table.covers(r));
                let warm = table.extract(&c, r, &mut out).then(|| out.clone());
                assert_eq!(warm, Herad::new().schedule(&c, r), "diverges at {r}");
                assert_eq!(
                    table.period_at(r),
                    Herad::new().optimal_period(&c, r),
                    "period diverges at {r}"
                );
            }
        }
    }

    #[test]
    fn chain_table_round_trips_through_json() {
        let c = chain();
        let mut table = ChainTable::solve(&c, Resources::new(1, 0));
        table.grow_to(&c, Resources::new(3, 3));
        let text = table.render();
        let loaded = ChainTable::parse(&text).expect("round trip");
        assert_eq!(loaded.tasks(), table.tasks());
        assert_eq!(loaded.dims(), table.dims());
        // Identical re-render (bitwise stable serialization)...
        assert_eq!(loaded.render(), text);
        // ...and identical answers, including after further growth.
        let mut grown = loaded;
        grown.grow_to(&c, Resources::new(5, 4));
        let mut out = Solution::empty();
        for (b, l) in [(0, 0), (1, 1), (3, 3), (0, 3), (3, 0), (5, 4), (2, 4)] {
            let r = Resources::new(b, l);
            let warm = grown.extract(&c, r, &mut out).then(|| out.clone());
            assert_eq!(warm, Herad::new().schedule(&c, r), "diverges at {r}");
        }
    }

    #[test]
    fn chain_table_rejects_corrupt_documents() {
        let c = chain();
        let table = ChainTable::solve(&c, Resources::new(2, 2));
        let text = table.render();
        // Not JSON at all.
        assert!(matches!(
            ChainTable::parse("not json"),
            Err(ChainTableError::Parse { .. })
        ));
        // Truncation: either a parse error or a malformed payload,
        // never a panic or a table.
        for cut in [1, text.len() / 4, text.len() / 2, text.len() - 2] {
            assert!(ChainTable::parse(&text[..cut]).is_err(), "cut at {cut}");
        }
        // Version skew.
        let skewed = text.replace("\"version\":1", "\"version\":2");
        assert!(matches!(
            ChainTable::parse(&skewed),
            Err(ChainTableError::Version { .. })
        ));
        let alien = text.replace("amp-chain-table", "amp-other-thing");
        assert!(matches!(
            ChainTable::parse(&alien),
            Err(ChainTableError::Version { .. })
        ));
        // Content tampering: a flipped digit fails the checksum.
        let idx = text.find("\"cells\":[\"").expect("cells field") + "\"cells\":[\"".len();
        let mut tampered = text.clone();
        let original = tampered.as_bytes()[idx];
        let flipped = if original == b'1' { '2' } else { '1' };
        tampered.replace_range(idx..=idx, &flipped.to_string());
        assert!(matches!(
            ChainTable::parse(&tampered),
            Err(ChainTableError::Malformed { .. })
        ));
        // Checksum tampering is equally fatal.
        let fake = text.replace("\"checksum\":", "\"checksum\":1");
        assert!(ChainTable::parse(&fake).is_err());
    }

    /// `text` with fields of its final cell replaced (indices into
    /// `pbest,prev_b,prev_l,acc_b,acc_l,v,start`) under a recomputed
    /// checksum: a forgery that the checksum alone lets through.
    fn forge_final_cell(text: &str, edits: &[(usize, &str)]) -> crate::json::Json {
        use crate::json::Json;
        let doc = Json::parse(text).unwrap();
        let mut obj = doc.as_obj().unwrap().clone();
        let strings = |key: &str| -> Vec<String> {
            let items = obj[key].as_arr().unwrap().iter();
            items.map(|x| x.as_str().unwrap().to_string()).collect()
        };
        let tasks = strings("tasks");
        let mut cells = strings("cells");
        let last = cells.last_mut().unwrap();
        let mut fields: Vec<&str> = last.split(',').collect();
        for &(i, value) in edits {
            fields[i] = value;
        }
        *last = fields.join(",");
        let dim = |key: &str| obj[key].as_int().unwrap() as usize;
        let checksum = ChainTable::checksum(&tasks, dim("dim_b"), dim("dim_l"), &cells);
        obj.insert("checksum".to_string(), Json::Int(checksum));
        obj.insert(
            "cells".to_string(),
            Json::Arr(cells.into_iter().map(Json::Str).collect()),
        );
        Json::Obj(obj)
    }

    #[test]
    fn forged_back_pointers_are_malformed() {
        let c = TaskChain::new(vec![
            Task::new(3, 6, false),
            Task::new(2, 4, true),
            Task::new(4, 8, true),
        ]);
        let text = ChainTable::solve(&c, Resources::new(2, 2)).render();
        let forgeries: [(&[(usize, &str)], &str); 5] = [
            // A stage starting at its own layer: extraction never ends.
            (&[(6, "3")], "points past"),
            // Back-pointers past the pool: extraction reads out of bounds.
            (&[(1, "40")], "points past"),
            (&[(2, "40")], "points past"),
            // A prefix, (1, 1, 1), using more cores than the whole: the
            // stage's core count underflows.
            (
                &[(1, "1"), (2, "1"), (3, "0"), (4, "0"), (6, "1")],
                "inconsistent prefix",
            ),
            // A single stage with no cores.
            (&[(3, "0"), (4, "0"), (6, "0")], "no cores"),
        ];
        for (edits, why) in forgeries {
            match ChainTable::from_json(&forge_final_cell(&text, edits)) {
                Err(ChainTableError::Malformed { message }) => {
                    assert!(message.contains(why), "{edits:?}: {message}");
                }
                other => panic!("{edits:?}: expected Malformed, got {other:?}"),
            }
        }
        // The same document with no edit still loads.
        assert!(ChainTable::from_json(&forge_final_cell(&text, &[])).is_ok());
    }

    #[test]
    fn chain_table_solves_and_serializes_degenerate_pools() {
        let single = TaskChain::new(vec![Task::new(5, 9, true)]);
        for (b, l) in [(0, 0), (1, 0), (0, 1)] {
            let table = ChainTable::solve(&single, Resources::new(b, l));
            let loaded = ChainTable::parse(&table.render()).expect("round trip");
            let r = Resources::new(b, l);
            let mut out = Solution::empty();
            let warm = loaded.extract(&single, r, &mut out).then(|| out.clone());
            assert_eq!(warm, Herad::new().schedule(&single, r), "at {r}");
        }
    }

    /// The recurrence as it stood when every period was a `u128`
    /// [`Ratio`]: `replaces`, `seed_cell` and `compute_cell` verbatim over
    /// a cell type of their own, driven in the sequential order. The
    /// oracle the integer cells are checked against, raw `num/den`
    /// included.
    mod ratio_oracle {
        use super::super::Pruning;
        use crate::chain::TaskChain;
        use crate::ratio::Ratio;
        use crate::resources::CoreType;

        #[derive(Clone, Copy, Debug)]
        pub(super) struct Cell {
            pub(super) pbest: Ratio,
            pub(super) prev_b: u32,
            pub(super) prev_l: u32,
            pub(super) acc_b: u32,
            pub(super) acc_l: u32,
            pub(super) v: CoreType,
            pub(super) start: u32,
        }

        const EMPTY_CELL: Cell = Cell {
            pbest: Ratio::INFINITY,
            prev_b: 0,
            prev_l: 0,
            acc_b: 0,
            acc_l: 0,
            v: CoreType::Little,
            start: 0,
        };

        const ZERO_CELL: Cell = Cell {
            pbest: Ratio::ZERO,
            ..EMPTY_CELL
        };

        fn replaces(c: &Cell, n: &Cell) -> bool {
            if n.pbest < c.pbest {
                return true;
            }
            if n.pbest > c.pbest {
                return false;
            }
            (c.acc_l < n.acc_l && c.acc_b > n.acc_b) || (c.acc_l >= n.acc_l && c.acc_b >= n.acc_b)
        }

        fn compare_cells(c: Cell, n: Cell) -> Cell {
            if replaces(&c, &n) {
                n
            } else {
                c
            }
        }

        fn stage_weight(
            chain: &TaskChain,
            start: usize,
            end: usize,
            rep: bool,
            u: u64,
            v: CoreType,
        ) -> Ratio {
            let sum = u128::from(chain.interval_sum(start, end, v));
            if rep {
                Ratio::new_raw(sum, u128::from(u))
            } else {
                Ratio::new_raw(sum, 1)
            }
        }

        fn seed_cell(chain: &TaskChain, t: usize, rb: usize, rl: usize) -> Cell {
            let rep = chain.is_replicable(0, t - 1);
            let little = if rl == 0 {
                EMPTY_CELL
            } else {
                Cell {
                    pbest: stage_weight(chain, 0, t - 1, rep, rl as u64, CoreType::Little),
                    prev_b: 0,
                    prev_l: 0,
                    acc_b: 0,
                    acc_l: if rep { rl as u32 } else { 1 },
                    v: CoreType::Little,
                    start: 0,
                }
            };
            if rb == 0 {
                return little;
            }
            let wb = stage_weight(chain, 0, t - 1, rep, rb as u64, CoreType::Big);
            if wb < little.pbest {
                Cell {
                    pbest: wb,
                    prev_b: 0,
                    prev_l: 0,
                    acc_b: if rep { rb as u32 } else { 1 },
                    acc_l: 0,
                    v: CoreType::Big,
                    start: 0,
                }
            } else {
                little
            }
        }

        fn compute_cell(
            chain: &TaskChain,
            j: usize,
            b_av: usize,
            l_av: usize,
            pruning: Pruning,
            get: impl Fn(usize, usize, usize) -> Cell,
        ) -> Cell {
            let mut c = seed_cell(chain, j, b_av, l_av);
            if l_av > 0 {
                c = compare_cells(c, get(j, b_av, l_av - 1));
            }
            if b_av > 0 {
                c = compare_cells(c, get(j, b_av - 1, l_av));
            }
            for i in (1..=j).rev() {
                let (s, e) = (i - 1, j - 1);
                let rep = chain.is_replicable(s, e);
                if pruning != Pruning::None && c.pbest.is_finite() {
                    let mut min_w = Ratio::INFINITY;
                    if b_av > 0 {
                        let u = if rep { b_av as u64 } else { 1 };
                        min_w = min_w.min(stage_weight(chain, s, e, rep, u, CoreType::Big));
                    }
                    if l_av > 0 {
                        let u = if rep { l_av as u64 } else { 1 };
                        min_w = min_w.min(stage_weight(chain, s, e, rep, u, CoreType::Little));
                    }
                    if min_w > c.pbest {
                        break;
                    }
                }
                for v in CoreType::BOTH {
                    let avail = match v {
                        CoreType::Big => b_av,
                        CoreType::Little => l_av,
                    };
                    let u_max = if rep { avail } else { avail.min(1) };
                    for u in 1..=u_max {
                        let (pb, pl) = match v {
                            CoreType::Big => (b_av - u, l_av),
                            CoreType::Little => (b_av, l_av - u),
                        };
                        let prefix = get(i - 1, pb, pl);
                        if pruning != Pruning::None && prefix.pbest > c.pbest {
                            break;
                        }
                        let w = stage_weight(chain, s, e, rep, u as u64, v);
                        let used = if rep { u as u32 } else { 1 };
                        let cand = Cell {
                            pbest: prefix.pbest.max(w),
                            prev_b: pb as u32,
                            prev_l: pl as u32,
                            acc_b: prefix.acc_b + if v == CoreType::Big { used } else { 0 },
                            acc_l: prefix.acc_l + if v == CoreType::Little { used } else { 0 },
                            v,
                            start: s as u32,
                        };
                        c = compare_cells(c, cand);
                        if pruning == Pruning::Aggressive && w <= prefix.pbest {
                            break;
                        }
                    }
                }
            }
            c
        }

        /// The full `(chain.len(), b, l)` table, laid out like [`super::super::Table`].
        pub(super) fn table(chain: &TaskChain, b: usize, l: usize, pruning: Pruning) -> Vec<Cell> {
            let n = chain.len();
            let idx = |j: usize, rb: usize, rl: usize| ((j - 1) * (b + 1) + rb) * (l + 1) + rl;
            let mut cells = vec![EMPTY_CELL; n * (b + 1) * (l + 1)];
            for j in 1..=n {
                for rb in 0..=b {
                    for rl in 0..=l {
                        let cell = if j == 1 {
                            seed_cell(chain, 1, rb, rl)
                        } else if rb == 0 && rl == 0 {
                            EMPTY_CELL
                        } else {
                            compute_cell(chain, j, rb, rl, pruning, |jj, pb, pl| {
                                if jj == 0 {
                                    ZERO_CELL
                                } else {
                                    cells[idx(jj, pb, pl)]
                                }
                            })
                        };
                        cells[idx(j, rb, rl)] = cell;
                    }
                }
            }
            cells
        }
    }

    /// A cell's raw fields, periods widened so both cell types compare.
    type RawCell = (u128, u128, u32, u32, u32, u32, CoreType, u32);

    fn raw(cell: &Cell) -> RawCell {
        (
            u128::from(cell.pbest.num),
            u128::from(cell.pbest.den),
            cell.prev_b,
            cell.prev_l,
            cell.acc_b,
            cell.acc_l,
            cell.v,
            cell.start,
        )
    }

    fn raw_oracle(cell: &ratio_oracle::Cell) -> RawCell {
        (
            cell.pbest.numer(),
            cell.pbest.denom(),
            cell.prev_b,
            cell.prev_l,
            cell.acc_b,
            cell.acc_l,
            cell.v,
            cell.start,
        )
    }

    /// Asserts that every cell of `table` with indices `≤ (b, l)` equals
    /// the oracle's, read from an oracle table of dimensions `(ob, ol)`.
    fn assert_cells_match(
        table: &Table,
        oracle: &[ratio_oracle::Cell],
        (ob, ol): (usize, usize),
        (b, l): (usize, usize),
        what: &str,
    ) {
        for j in 1..=table.n {
            for rb in 0..=b {
                for rl in 0..=l {
                    let want = &oracle[((j - 1) * (ob + 1) + rb) * (ol + 1) + rl];
                    assert_eq!(
                        raw(&table.get(j, rb, rl)),
                        raw_oracle(want),
                        "{what}: cell ({j}, {rb}, {rl})"
                    );
                }
            }
        }
    }

    /// A seeded chain of `n` tasks. Small weights make exact ties (the
    /// tie-breaks under test) common; every fourth chain draws large
    /// weights instead, so sums and cross-products get wide.
    fn seeded_chain(seed: u64, n: usize) -> TaskChain {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let top = if seed % 4 == 3 { 1u64 << 40 } else { 12 };
        TaskChain::new(
            (0..n)
                .map(|_| {
                    let big = rng.gen_range(1..=top);
                    let little = if rng.gen_bool(0.5) {
                        big * rng.gen_range(1..=4u64)
                    } else {
                        rng.gen_range(1..=top)
                    };
                    Task::new(big, little, rng.gen_bool(0.6))
                })
                .collect(),
        )
    }

    #[test]
    fn integer_cells_match_the_ratio_recurrence_bit_for_bit() {
        for seed in 0..32u64 {
            let n = 1 + seed as usize;
            let c = seeded_chain(seed, n);
            // Pools sweep 0–9 per side over the first 16 chains; longer
            // chains stay within 0–6, because the grow sweep below solves
            // the table once per smaller pool.
            let side = if n > 16 { 7 } else { 10 };
            let (b, l) = (n % side, (3 * n + 5) % side);
            for pruning in [Pruning::None, Pruning::Lossless, Pruning::Aggressive] {
                let oracle = ratio_oracle::table(&c, b, l, pruning);
                let what = format!("{n} tasks at ({b}, {l}), {pruning:?}");
                for workers in [1, 2] {
                    let mut table = Table::default();
                    table.rebuild(&c, b, l, pruning, workers);
                    assert_cells_match(
                        &table,
                        &oracle,
                        (b, l),
                        (b, l),
                        &format!("{what}, rebuild x{workers}"),
                    );
                }
                // Every smaller pool, rebuilt (a sub-table of the oracle's)
                // and then grown to the full pool.
                for b0 in 0..=b {
                    for l0 in 0..=l {
                        let mut table = Table::default();
                        table.rebuild(&c, b0, l0, pruning, 1);
                        assert_cells_match(
                            &table,
                            &oracle,
                            (b, l),
                            (b0, l0),
                            &format!("{what}, rebuild at ({b0}, {l0})"),
                        );
                        table.grow(&c, b, l, pruning);
                        assert_cells_match(
                            &table,
                            &oracle,
                            (b, l),
                            (b, l),
                            &format!("{what}, grown from ({b0}, {l0})"),
                        );
                    }
                }
                if pruning == Pruning::Aggressive {
                    assert_render_matches(&c, Resources::new(b as u64, l as u64), &oracle);
                }
            }
        }
    }

    /// [`ChainTable::render`] bytes against the document the oracle's
    /// cells spell: same cell strings, same checksum.
    fn assert_render_matches(c: &TaskChain, r: Resources, oracle: &[ratio_oracle::Cell]) {
        use crate::json::Json;
        let table = ChainTable::solve(c, r);
        let cells: Vec<String> = oracle
            .iter()
            .map(|o| {
                let pbest = if o.pbest.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{}/{}", o.pbest.numer(), o.pbest.denom())
                };
                let v = if o.v == CoreType::Big { 'B' } else { 'L' };
                format!(
                    "{pbest},{},{},{},{},{v},{}",
                    o.prev_b, o.prev_l, o.acc_b, o.acc_l, o.start
                )
            })
            .collect();
        let tasks: Vec<String> = table
            .tasks()
            .iter()
            .map(|&(wb, wl, rep)| ChainTable::encode_task(wb, wl, rep))
            .collect();
        let (b, l) = table.dims();
        let checksum = ChainTable::checksum(&tasks, b, l, &cells);
        let mut doc = table.to_json();
        let Json::Obj(obj) = &mut doc else {
            unreachable!("a chain table is an object")
        };
        obj.insert(
            "cells".to_string(),
            Json::Arr(cells.into_iter().map(Json::Str).collect()),
        );
        obj.insert("checksum".to_string(), Json::Int(checksum));
        assert_eq!(table.render(), doc.render_compact(), "render at {r}");
    }

    #[test]
    fn periods_past_u64_are_malformed_cells() {
        use crate::json::Json;
        // A document the encoder never writes: a period part one past
        // u64::MAX, under a checksum that matches, so only the cell
        // decoder can refuse it.
        let text = ChainTable::solve(&chain(), Resources::new(1, 1)).render();
        let doc = Json::parse(&text).unwrap();
        let obj = doc.as_obj().unwrap();
        let strings = |key: &str| -> Vec<String> {
            let items = obj[key].as_arr().unwrap().iter();
            items.map(|x| x.as_str().unwrap().to_string()).collect()
        };
        let tasks = strings("tasks");
        let too_big = u128::from(u64::MAX) + 1;
        for bad in [format!("{too_big}/1"), format!("3/{too_big}")] {
            let mut cells = strings("cells");
            let (_, rest) = cells[1].split_once(',').unwrap();
            cells[1] = format!("{bad},{rest}");
            let checksum = ChainTable::checksum(&tasks, 1, 1, &cells);
            let mut forged = obj.clone();
            forged.insert("checksum".to_string(), Json::Int(checksum));
            let cells = cells.into_iter().map(Json::Str).collect();
            forged.insert("cells".to_string(), Json::Arr(cells));
            match ChainTable::from_json(&Json::Obj(forged)) {
                Err(ChainTableError::Malformed { message }) => {
                    assert!(message.contains("not a u64"), "{message}");
                }
                other => panic!("{bad}: expected Malformed, got {other:?}"),
            }
        }
        // u64::MAX itself still decodes.
        assert!(ChainTable::decode_cell(&format!("{}/1,0,0,0,1,L,0", u64::MAX)).is_ok());
    }
}
