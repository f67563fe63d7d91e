//! Seeded inputs: scheduling instances, the per-workload op sequences and
//! the request frames the client sends.
//!
//! Every op is a pure function of `(seed, op index)`, so the wire run and
//! the traced replay walk the same sequence, and no generator state grows
//! with the run length.

use amp_core::{Resources, Task, TaskChain};
use amp_service::{Objective, Policy, ScheduleRequest, TaskSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

pub const POLICIES: [&str; 3] = ["FERTAC", "HeRAD", "2CATAC"];
/// Largest pool side of a fresh 2CATAC instance.
const TWOCATAC_MAX_CORES: u64 = 4;

/// One scheduling instance plus the prefix sums the reply checker uses.
#[derive(Clone, Debug, Default)]
pub struct Instance {
    pub tasks: Vec<TaskSpec>,
    pub big: u64,
    pub little: u64,
    pub policy: &'static str,
    /// `pre_big[i]`: summed big-core weight of `tasks[..i]`.
    pub pre_big: Vec<u64>,
    /// `pre_little[i]`: summed little-core weight of `tasks[..i]`.
    pub pre_little: Vec<u64>,
    /// `pre_seq[i]`: sequential (non-replicable) tasks among `tasks[..i]`.
    pub pre_seq: Vec<u32>,
}

impl Instance {
    /// Recomputes the prefix sums after `tasks` changed (buffers reused).
    fn finish(&mut self) {
        self.pre_big.clear();
        self.pre_little.clear();
        self.pre_seq.clear();
        let (mut b, mut l, mut s) = (0, 0, 0);
        self.pre_big.push(0);
        self.pre_little.push(0);
        self.pre_seq.push(0);
        for t in &self.tasks {
            b += t.weight_big;
            l += t.weight_little;
            s += u32::from(!t.replicable);
            self.pre_big.push(b);
            self.pre_little.push(l);
            self.pre_seq.push(s);
        }
    }

    pub fn resources(&self) -> Resources {
        Resources::new(self.big, self.little)
    }

    pub fn chain(&self) -> TaskChain {
        TaskChain::new(self.tasks.iter().map(|&t| Task::from(t)).collect())
    }

    pub fn request(&self, id: u64) -> ScheduleRequest {
        ScheduleRequest {
            id,
            tasks: self.tasks.clone(),
            big_cores: self.big,
            little_cores: self.little,
            policy: Policy::Strategy(self.policy.to_string()),
            objective: Objective::Period,
            deadline_us: None,
        }
    }

    /// The canonical frame up to and including `"id":`.
    pub fn write_prefix(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"big\":");
        push_u64(out, self.big);
        out.extend_from_slice(b",\"id\":");
    }

    /// The canonical frame after the id, with its newline.
    pub fn write_suffix(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b",\"little\":");
        push_u64(out, self.little);
        out.extend_from_slice(b",\"policy\":\"");
        out.extend_from_slice(self.policy.as_bytes());
        out.extend_from_slice(b"\",\"tasks\":[");
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.push(b'[');
            push_u64(out, t.weight_big);
            out.push(b',');
            push_u64(out, t.weight_little);
            out.extend_from_slice(if t.replicable { b",1]" } else { b",0]" });
        }
        out.extend_from_slice(b"]}\n");
    }
}

pub fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&tmp[i..]);
}

/// SplitMix64 finalizer: decorrelates `(seed, index)` pairs.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_tasks(rng: &mut StdRng, len: usize, out: &mut Vec<TaskSpec>) {
    out.clear();
    out.extend((0..len).map(|_| TaskSpec {
        weight_big: rng.gen_range(1..=48u64),
        weight_little: rng.gen_range(1..=96u64),
        replicable: rng.gen_bool(0.5),
    }));
}

/// How a workload turns an op index into an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Order {
    /// The first pass visits every table entry once, then ops draw
    /// entries uniformly at random.
    FirstPassThenRandom,
    /// Ops cycle through the table in order.
    Cycle,
    /// Every op is a fresh chain generated from `(seed, index)`.
    Fresh,
}

/// Shape of the generated instances.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub tasks: (usize, usize),
    pub big: (u64, u64),
    pub little: (u64, u64),
}

/// A workload's op sequence.
pub struct OpGen {
    pub seed: u64,
    order: Order,
    pub table: Vec<Instance>,
    /// Per table entry: the frame pieces around the id.
    templates: Vec<(Vec<u8>, Vec<u8>)>,
    shape: Shape,
}

impl OpGen {
    /// `distinct` random instances of `shape` with a random policy each,
    /// all distinct.
    pub fn hot(seed: u64, distinct: usize, shape: Shape) -> OpGen {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut table: Vec<Instance> = Vec::with_capacity(distinct);
        while table.len() < distinct {
            let mut inst = Instance::default();
            let len = rng.gen_range(shape.tasks.0..=shape.tasks.1);
            random_tasks(&mut rng, len, &mut inst.tasks);
            inst.big = rng.gen_range(shape.big.0..=shape.big.1);
            inst.little = rng.gen_range(shape.little.0..=shape.little.1);
            inst.policy = POLICIES[rng.gen_range(0..POLICIES.len())];
            if table
                .iter()
                .any(|t| t.tasks == inst.tasks && (t.big, t.little) == (inst.big, inst.little))
            {
                continue;
            }
            inst.finish();
            table.push(inst);
        }
        OpGen::with_table(seed, Order::FirstPassThenRandom, table, shape)
    }

    /// `chains` random HeRAD chains, each walked over its pool grid
    /// (`big` outer, `little` inner, both ascending), chain-major. Chain
    /// lengths are spread evenly over the shape's range rather than drawn,
    /// so every seed's chains hold the same number of tasks: the time to
    /// load their tier snapshot grows with the square of its size.
    pub fn sweep(seed: u64, chains: usize, shape: Shape) -> OpGen {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut table = Vec::new();
        let (shortest, longest) = shape.tasks;
        for c in 0..chains {
            let len = shortest + (longest - shortest) * c / (chains - 1).max(1);
            let mut tasks = Vec::new();
            random_tasks(&mut rng, len, &mut tasks);
            for big in shape.big.0..=shape.big.1 {
                for little in shape.little.0..=shape.little.1 {
                    let mut inst = Instance {
                        tasks: tasks.clone(),
                        big,
                        little,
                        policy: "HeRAD",
                        ..Instance::default()
                    };
                    inst.finish();
                    table.push(inst);
                }
            }
        }
        OpGen::with_table(seed, Order::Cycle, table, shape)
    }

    /// A fresh chain per op.
    pub fn fresh(seed: u64, shape: Shape) -> OpGen {
        OpGen {
            seed,
            order: Order::Fresh,
            table: Vec::new(),
            templates: Vec::new(),
            shape,
        }
    }

    fn with_table(seed: u64, order: Order, table: Vec<Instance>, shape: Shape) -> OpGen {
        let templates = table
            .iter()
            .map(|inst| {
                let (mut pre, mut suf) = (Vec::new(), Vec::new());
                inst.write_prefix(&mut pre);
                inst.write_suffix(&mut suf);
                (pre, suf)
            })
            .collect();
        OpGen {
            seed,
            order,
            table,
            templates,
            shape,
        }
    }

    /// Resolves op `i`: `Some(table index)`, or `None` after generating
    /// the op's fresh instance into `fresh`.
    pub fn op(&self, i: u64, fresh: &mut Instance) -> Option<usize> {
        match self.order {
            Order::FirstPassThenRandom => {
                let n = self.table.len() as u64;
                Some(if i < n {
                    i as usize
                } else {
                    (mix(self.seed ^ mix(i)) % n) as usize
                })
            }
            Order::Cycle => Some((i % self.table.len() as u64) as usize),
            Order::Fresh => {
                let mut rng = StdRng::seed_from_u64(mix(self.seed) ^ mix(i));
                let len = rng.gen_range(self.shape.tasks.0..=self.shape.tasks.1);
                random_tasks(&mut rng, len, &mut fresh.tasks);
                fresh.policy = POLICIES[rng.gen_range(0..POLICIES.len())];
                // 2CATAC is exponential in the stage count: on pools past
                // 4+4 its solve time ran to milliseconds at the 1% tail
                // and its spread dominated the workload's.
                let cap = if fresh.policy == "2CATAC" {
                    TWOCATAC_MAX_CORES
                } else {
                    u64::MAX
                };
                fresh.big = rng.gen_range(self.shape.big.0..=self.shape.big.1.min(cap));
                fresh.little = rng.gen_range(self.shape.little.0..=self.shape.little.1.min(cap));
                fresh.finish();
                None
            }
        }
    }

    pub fn instance<'a>(&'a self, which: Option<usize>, fresh: &'a Instance) -> &'a Instance {
        which.map_or(fresh, |i| &self.table[i])
    }

    /// Appends the op's frame with id `id`: two copies and a digit splice
    /// for table entries, a direct render for fresh instances.
    pub fn write_frame(&self, which: Option<usize>, fresh: &Instance, id: u64, out: &mut Vec<u8>) {
        match which {
            Some(i) => {
                let (pre, suf) = &self.templates[i];
                out.extend_from_slice(pre);
                push_u64(out, id);
                out.extend_from_slice(suf);
            }
            None => {
                fresh.write_prefix(out);
                push_u64(out, id);
                fresh.write_suffix(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        tasks: (2, 8),
        big: (1, 4),
        little: (0, 4),
    };

    #[test]
    fn frames_match_the_library_renderer() {
        for gen in [OpGen::hot(7, 16, SHAPE), OpGen::fresh(7, SHAPE)] {
            let mut fresh = Instance::default();
            for i in 0..32 {
                let which = gen.op(i, &mut fresh);
                let inst = gen.instance(which, &fresh);
                let mut out = Vec::new();
                gen.write_frame(which, &fresh, 1000 + i, &mut out);
                let expect = amp_net::proto::render_request(&inst.request(1000 + i), "public");
                assert_eq!(String::from_utf8(out).unwrap(), format!("{expect}\n"));
            }
        }
    }

    #[test]
    fn ops_are_pure_functions_of_seed_and_index() {
        let a = OpGen::fresh(3, SHAPE);
        let b = OpGen::fresh(3, SHAPE);
        let (mut x, mut y) = (Instance::default(), Instance::default());
        for i in [0, 5, 1 << 20] {
            a.op(i, &mut x);
            b.op(i, &mut y);
            assert_eq!((&x.tasks, x.big, x.policy), (&y.tasks, y.big, y.policy));
        }
        let hot = OpGen::hot(3, 16, SHAPE);
        let firsts: Vec<_> = (0..16).map(|i| hot.op(i, &mut x)).collect();
        assert_eq!(firsts, (0..16).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_walks_each_chain_over_an_ascending_grid() {
        let gen = OpGen::sweep(1, 2, SHAPE);
        assert_eq!(gen.table.len(), 2 * 4 * 5);
        let pools: Vec<(u64, u64)> = gen.table[..5].iter().map(|i| (i.big, i.little)).collect();
        assert_eq!(pools, [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]);
        assert_eq!(gen.table[0].tasks, gen.table[19].tasks);
        assert_ne!(gen.table[0].tasks, gen.table[20].tasks);
    }
}
