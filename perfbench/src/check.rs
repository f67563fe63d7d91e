//! Reply checking, independent of the server's own validation.
//!
//! Every success frame is scanned by shape (the server renders canonical
//! JSON only) and checked against the instance that was sent: the stages
//! cover the chain contiguously, replicate only replicable tasks, fit the
//! pool and add up to the reported core usage, and the period recomputed
//! from the stages equals the reported one exactly. A seeded sample is
//! also compared byte for byte with a direct library solve.

use amp_core::sched::strategy_by_name;
use amp_service::{ScheduleOutcome, ScheduleResponse};

use crate::gen::Instance;

/// A success frame's fields.
#[derive(Debug)]
pub struct OkReply<'a> {
    pub id: u64,
    pub cache_hit: bool,
    pub complete: bool,
    pub period: (u128, u128),
    /// The raw `[[s,e,c,"T"],...]` body, without the outer brackets.
    pub stages: &'a str,
    pub strategy: &'a str,
    pub used: (u64, u64),
}

/// One reply frame, classified.
#[derive(Debug)]
pub enum Reply<'a> {
    Ok(OkReply<'a>),
    /// A typed rejection (counts as a failed op).
    Err(Option<u64>),
    /// Not a frame this server renders.
    Malformed,
}

struct Cursor<'a> {
    s: &'a str,
}

impl<'a> Cursor<'a> {
    fn lit(&mut self, lit: &str) -> Option<()> {
        self.s = self.s.strip_prefix(lit)?;
        Some(())
    }

    fn int(&mut self) -> Option<u128> {
        let n = self.s.bytes().take_while(u8::is_ascii_digit).count();
        let v = self.s[..n].parse().ok()?;
        self.s = &self.s[n..];
        Some(v)
    }

    fn boolean(&mut self) -> Option<bool> {
        if self.lit("true").is_some() {
            Some(true)
        } else {
            self.lit("false").map(|()| false)
        }
    }

    /// A string body up to the next quote (the fields scanned here never
    /// contain escapes).
    fn until(&mut self, end: char) -> Option<&'a str> {
        let n = self.s.find(end)?;
        let v = &self.s[..n];
        self.s = &self.s[n + end.len_utf8()..];
        Some(v)
    }
}

pub fn scan(line: &str) -> Reply<'_> {
    if line.starts_with("{\"err\":") {
        let id = line
            .rfind(",\"id\":")
            .and_then(|p| line[p + 6..line.len().saturating_sub(1)].parse().ok());
        return Reply::Err(id);
    }
    scan_ok(line).map_or(Reply::Malformed, Reply::Ok)
}

fn scan_ok(line: &str) -> Option<OkReply<'_>> {
    let mut c = Cursor { s: line };
    c.lit("{\"id\":")?;
    let id = u64::try_from(c.int()?).ok()?;
    c.lit(",\"ok\":{\"cache_hit\":")?;
    let cache_hit = c.boolean()?;
    c.lit(",\"complete\":")?;
    let complete = c.boolean()?;
    c.lit(",\"decomposition\":\"")?;
    c.until('"')?;
    c.lit(",\"period\":\"")?;
    let num = c.int()?;
    c.lit("/")?;
    let den = c.int()?;
    c.lit("\",\"stages\":[")?;
    let end = c.s.find("],\"strategy\":\"")?;
    let stages = &c.s[..end];
    c.s = &c.s[end + 1..];
    c.lit(",\"strategy\":\"")?;
    let strategy = c.until('"')?;
    c.lit(",\"used_big\":")?;
    let used_big = u64::try_from(c.int()?).ok()?;
    c.lit(",\"used_little\":")?;
    let used_little = u64::try_from(c.int()?).ok()?;
    c.lit("}}")?;
    c.s.is_empty().then_some(OkReply {
        id,
        cache_hit,
        complete,
        period: (num, den),
        stages,
        strategy,
        used: (used_big, used_little),
    })
}

/// Checks a success reply against the instance it answers.
pub fn reply_is_valid(r: &OkReply<'_>, inst: &Instance) -> bool {
    if r.strategy != inst.policy || !r.complete || r.period.1 == 0 {
        return false;
    }
    let n = inst.tasks.len();
    let mut next = 0usize;
    let (mut used_b, mut used_l) = (0u64, 0u64);
    // Largest stage weight so far as the fraction w / c.
    let (mut w_max, mut c_max) = (0u128, 1u128);
    for stage in r.stages.split("],") {
        let mut c = Cursor {
            s: stage.trim_start_matches('['),
        };
        let parsed = (|| {
            let s = c.int()? as usize;
            c.lit(",")?;
            let e = c.int()? as usize;
            c.lit(",")?;
            let cores = c.int()?;
            c.lit(",\"")?;
            let kind = c.until('"')?;
            Some((s, e, cores, kind))
        })();
        let Some((s, e, cores, kind)) = parsed else {
            return false;
        };
        if s != next || e < s || e >= n || cores == 0 {
            return false;
        }
        if cores > 1 && inst.pre_seq[e + 1] != inst.pre_seq[s] {
            return false;
        }
        let w = match kind {
            "B" => {
                used_b += cores as u64;
                inst.pre_big[e + 1] - inst.pre_big[s]
            }
            "L" => {
                used_l += cores as u64;
                inst.pre_little[e + 1] - inst.pre_little[s]
            }
            _ => return false,
        };
        if u128::from(w) * c_max > w_max * cores {
            (w_max, c_max) = (u128::from(w), cores);
        }
        next = e + 1;
    }
    next == n
        && (used_b, used_l) == r.used
        && used_b <= inst.big
        && used_l <= inst.little
        && w_max * r.period.1 == r.period.0 * c_max
}

/// The frame a direct `strategy_by_name(..).schedule(..)` call implies
/// for this instance, with the reply's id and cache flag, newline
/// included.
pub fn expected_line(inst: &Instance, id: u64, cache_hit: bool) -> Option<String> {
    let strategy = strategy_by_name(inst.policy)?;
    let chain = inst.chain();
    let solution = strategy.schedule(&chain, inst.resources())?;
    let mut outcome = ScheduleOutcome::from_solution(strategy.name(), &solution, &chain, true);
    outcome.cache_hit = cache_hit;
    let mut line = String::new();
    amp_net::proto::render_response_line(
        &ScheduleResponse {
            id,
            result: Ok(outcome),
        },
        &mut line,
    );
    Some(line)
}

/// Replies kept for the byte-for-byte comparison, bounded.
#[derive(Default)]
pub struct Sample {
    kept: Vec<(Instance, String)>,
}

/// At most this many sampled replies per run.
const SAMPLE_CAP: usize = 256;

impl Sample {
    /// Whether op `seq` belongs to the seeded sample (about 1 in 64).
    pub fn wants(seed: u64, seq: u64) -> bool {
        crate::gen::mix(seed ^ 0xB17 ^ crate::gen::mix(seq)).is_multiple_of(64)
    }

    pub fn keep(&mut self, inst: &Instance, line: &str) {
        if self.kept.len() < SAMPLE_CAP {
            self.kept.push((inst.clone(), line.to_string()));
        }
    }

    /// Compares every kept reply with a direct solve; returns
    /// `(compared, mismatched)`.
    pub fn verify(&self) -> (u64, u64) {
        let mut bad = 0;
        for (inst, line) in &self.kept {
            let ok = match scan(line) {
                Reply::Ok(r) => expected_line(inst, r.id, r.cache_hit)
                    .is_some_and(|expect| expect.strip_suffix('\n') == Some(line.as_str())),
                _ => false,
            };
            bad += u64::from(!ok);
        }
        (self.kept.len() as u64, bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{OpGen, Shape};

    fn instances() -> Vec<Instance> {
        let gen = OpGen::hot(
            11,
            48,
            Shape {
                tasks: (2, 12),
                big: (1, 4),
                little: (0, 4),
            },
        );
        gen.table
    }

    #[test]
    fn library_answers_pass_the_checker() {
        for (i, inst) in instances().iter().enumerate() {
            let line = expected_line(inst, i as u64, i % 2 == 0).expect("feasible");
            let Reply::Ok(r) = scan(line.trim_end()) else {
                panic!("canonical frame must scan: {line}")
            };
            assert_eq!(r.id, i as u64);
            assert!(reply_is_valid(&r, inst), "{line}");
        }
    }

    /// A corrupted reply is counted as failed: a wrong period, a stage
    /// that overruns the pool, a gap in the cover and a wrong strategy
    /// all fail the check, and the byte comparison catches a changed
    /// decomposition the structural check cannot see.
    #[test]
    fn corrupted_replies_fail() {
        let inst = &instances()[5];
        let good = expected_line(inst, 9, false).expect("feasible");
        let good = good.trim_end();
        let Reply::Ok(r) = scan(good) else {
            panic!("scans")
        };
        let period = format!("\"period\":\"{}/{}\"", r.period.0, r.period.1);
        let corruptions = [
            good.replace(
                &period,
                &format!("\"period\":\"{}/{}\"", r.period.0 + 1, r.period.1),
            ),
            good.replace("\"used_big\":", "\"used_big\":9"),
            good.replace("[0,", "[1,"),
            good.replace(inst.policy, "OTAC (B)"),
            good.replace("\"complete\":true", "\"complete\":false"),
        ];
        for bad in &corruptions {
            assert_ne!(bad, good, "corruption must change the frame");
            let valid = match scan(bad) {
                Reply::Ok(r) => reply_is_valid(&r, inst),
                _ => false,
            };
            assert!(!valid, "accepted a corrupted reply: {bad}");
        }
        let mut sample = Sample::default();
        sample.keep(inst, good);
        sample.keep(
            inst,
            &good.replace("\"decomposition\":\"", "\"decomposition\":\" "),
        );
        assert_eq!(sample.verify(), (2, 1));
        assert!(matches!(
            scan("{\"err\":{\"code\":\"OVERLOADED\",\"message\":\"x\"},\"id\":4}"),
            Reply::Err(Some(4))
        ));
        assert!(matches!(scan("{\"id\":4"), Reply::Malformed));
    }
}
