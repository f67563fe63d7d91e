//! The wire protocol: newline-delimited canonical JSON frames.
//!
//! One line is one frame; a frame is one [`amp_core::json`] value
//! rendered with [`Json::render_compact`], which never contains a raw
//! newline — so "split on `\n`" is the complete framing layer, and
//! "the line parsed" means "the frame arrived whole" (the canonical
//! parser rejects every strict prefix of a container-rooted document).
//!
//! ## Requests (client → server)
//!
//! A schedule request:
//!
//! ```json
//! {"id":7,"tenant":"acme","policy":"HeRAD","big":2,"little":2,
//!  "tasks":[[10,25,0],[40,90,1],[5,12,0]],"deadline_us":5000}
//! ```
//!
//! * `id` — client-chosen correlation id, echoed verbatim; responses
//!   may arrive in any order.
//! * `tenant` — optional quota bucket name (default `"public"`).
//! * `policy` — `"portfolio"` (case-insensitive) or a strategy name.
//! * `tasks` — `[weight_big, weight_little, replicable(0|1)]` triples.
//! * `deadline_us` — optional portfolio compute deadline.
//! * `objective` — optional: `"period"` (the default when absent, so
//!   pre-energy clients keep bit-identical behavior) or `"min_energy"`,
//!   which additionally requires `target_period` as the exact
//!   `"num/den"` string. Energy responses carry the served power as the
//!   integer `energy_mw` (whole milliwatts — no floats on the wire).
//!
//! Control frames: `{"op":"status"}` returns the server status
//! snapshot, `{"op":"ping"}` returns a pong (liveness probes).
//!
//! ## Decoding
//!
//! [`parse_request`] reads a frame in one pass, in linear time, on the
//! same [`Lexer`] that [`Json::parse`] builds trees with. Integers and
//! strings land in per-field slots (strings borrowed from the line
//! unless escaped) and `tasks` decodes straight into `Vec<TaskSpec>`, so
//! a canonical frame allocates only what the request owns. Values of a
//! shape the protocol does not expect go through the lexer's tree
//! builder, which syntax-checks them whole: a non-object root, an
//! unknown key's value, a wrong-typed field, a task that is not an
//! integer triple and a non-string `op` (rendered back in its
//! rejection). Syntax errors therefore outrank every field check, and
//! duplicate keys are rejected at every depth, exactly as a full parse
//! followed by a field lookup would.
//!
//! ## Responses (server → client)
//!
//! `{"id":7,"ok":{...outcome...}}` on success;
//! `{"id":7,"err":{"code":"QUOTA_EXCEEDED","message":"..."}}` on any
//! failure (the `id` key is absent when the frame was too mangled to
//! recover one). Codes are the stable [`ServiceError::code`] set plus
//! the transport-level codes `PARSE_ERROR`, `BAD_REQUEST`,
//! `FRAME_TOO_LARGE` and `QUOTA_EXCEEDED`. The period travels as the
//! exact `"num/den"` string — the wire format has no floats.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use amp_core::json::{Json, JsonError, Lexer, Token};
use amp_core::CoreType;
use amp_service::{
    Objective, Policy, ScheduleOutcome, ScheduleRequest, ScheduleResponse, TaskSpec,
};

/// A transport-level rejection, answered without entering the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Stable machine-readable code.
    pub code: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
}

impl WireError {
    fn parse(message: impl Into<String>) -> Self {
        WireError {
            code: "PARSE_ERROR",
            message: message.into(),
        }
    }

    fn bad_request(message: impl Into<String>) -> Self {
        WireError {
            code: "BAD_REQUEST",
            message: message.into(),
        }
    }
}

/// One parsed request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireRequest {
    /// A scheduling request plus its quota tenant.
    Schedule {
        /// The engine-level request.
        request: ScheduleRequest,
        /// Quota bucket the request draws from.
        tenant: String,
    },
    /// `{"op":"status"}` — status snapshot probe.
    Status,
    /// `{"op":"ping"}` — liveness probe.
    Ping,
}

/// Parses one frame. `max_tasks` bounds the chain length a single frame
/// may carry (memory protection; longer chains are `BAD_REQUEST`).
///
/// On error the result carries the recovered request id when one was
/// present, so the rejection can still be correlated.
///
/// One pass over the frame: a syntax error anywhere wins (as a
/// `PARSE_ERROR` with no id); only then do the field checks run, in a
/// fixed order — op, id, big, little, deadline_us, tenant,
/// objective/target_period, policy, tasks, task count, task shape.
pub fn parse_request(
    line: &str,
    max_tasks: usize,
) -> Result<WireRequest, (Option<u64>, WireError)> {
    let syntax = |e: JsonError| (None, WireError::parse(e.to_string()));
    let mut lexer = Lexer::new(line);
    let mut frame = Frame::default();
    match lexer.token().map_err(syntax)? {
        Token::ObjStart => lexer
            .members(|lx, key| frame.member(lx, key, max_tasks))
            .map_err(syntax)?,
        other => {
            lexer.tree(other).map_err(syntax)?;
            lexer.finish().map_err(syntax)?;
            return Err((None, WireError::parse("frame must be a JSON object")));
        }
    }
    lexer.finish().map_err(syntax)?;
    frame.request(max_tasks)
}

const NOT_A_TRIPLE: &str = "each task must be a [big, little, replicable] triple";
const BAD_TRIPLE: &str = "each task must be [weight_big, weight_little, replicable(0|1)]";

/// What one pass over a request frame leaves for the field checks.
/// Strings borrow from the frame unless they were escaped. A slot of
/// type `Option<Option<T>>` tells an absent key (`None`) from a value
/// of the wrong type (`Some(None)`) where the checks answer differently.
#[derive(Default)]
struct Frame<'a> {
    /// One bit per known key, to reject repeats.
    seen: u16,
    /// Keys the protocol does not use: ignored, but still unique.
    unknown: BTreeSet<Cow<'a, str>>,
    /// `Err` holds a non-string op, rendered back in the rejection.
    op: Option<Result<Cow<'a, str>, Json>>,
    id: Option<u64>,
    big: Option<u64>,
    little: Option<u64>,
    deadline_us: Option<Option<u64>>,
    tenant: Option<Option<Cow<'a, str>>>,
    objective: Option<Option<Cow<'a, str>>>,
    target_period: Option<Cow<'a, str>>,
    policy: Option<Cow<'a, str>>,
    tasks: Option<Tasks>,
}

/// The `tasks` array as decoded: triples up to the first malformed item
/// or the server's limit, whichever comes first; past either, items are
/// only counted (and syntax-checked).
struct Tasks {
    specs: Vec<TaskSpec>,
    count: usize,
    malformed: Option<&'static str>,
}

impl<'a> Frame<'a> {
    /// Decodes one member. Values of an unexpected shape go through the
    /// tree builder, so a syntax error inside them reads as before.
    fn member(
        &mut self,
        lx: &mut Lexer<'a>,
        key: Cow<'a, str>,
        max_tasks: usize,
    ) -> Result<(), JsonError> {
        let bit = match &*key {
            "op" => {
                self.op = Some(match lx.token()? {
                    Token::Str(s) => Ok(s),
                    other => Err(lx.tree(other)?),
                });
                1 << 0
            }
            "id" => {
                self.id = int(lx)?;
                1 << 1
            }
            "big" => {
                self.big = int(lx)?;
                1 << 2
            }
            "little" => {
                self.little = int(lx)?;
                1 << 3
            }
            "deadline_us" => {
                self.deadline_us = Some(int(lx)?);
                1 << 4
            }
            "tenant" => {
                self.tenant = Some(string(lx)?);
                1 << 5
            }
            "objective" => {
                self.objective = Some(string(lx)?);
                1 << 6
            }
            "target_period" => {
                self.target_period = string(lx)?;
                1 << 7
            }
            "policy" => {
                self.policy = string(lx)?;
                1 << 8
            }
            "tasks" => {
                self.tasks = match lx.token()? {
                    Token::ArrStart => Some(tasks(lx, max_tasks)?),
                    other => {
                        lx.tree(other)?;
                        None
                    }
                };
                1 << 9
            }
            _ => {
                lx.value()?;
                if self.unknown.contains(&key) {
                    return Err(lx.duplicate_key(&key));
                }
                self.unknown.insert(key);
                return Ok(());
            }
        };
        if self.seen & bit != 0 {
            return Err(lx.duplicate_key(&key));
        }
        self.seen |= bit;
        Ok(())
    }

    /// The field checks, in the order the protocol fixes.
    fn request(self, max_tasks: usize) -> Result<WireRequest, (Option<u64>, WireError)> {
        if let Some(op) = self.op {
            return match op {
                Ok(s) if s == "status" => Ok(WireRequest::Status),
                Ok(s) if s == "ping" => Ok(WireRequest::Ping),
                other => {
                    let op = other.map_or_else(|tree| tree, |s| Json::Str(s.into_owned()));
                    Err((
                        self.id,
                        WireError::bad_request(format!("unknown op {}", op.render_compact())),
                    ))
                }
            };
        }
        let Some(id) = self.id else {
            return Err((None, WireError::bad_request("missing integer \"id\"")));
        };
        let fail = |message: &str| Err((Some(id), WireError::bad_request(message)));
        let Some(big_cores) = self.big else {
            return fail("missing integer \"big\"");
        };
        let Some(little_cores) = self.little else {
            return fail("missing integer \"little\"");
        };
        let deadline_us = match self.deadline_us {
            None => None,
            Some(Some(us)) => Some(us),
            Some(None) => return fail("\"deadline_us\" must be an integer"),
        };
        let tenant = match self.tenant {
            None => "public".to_string(),
            Some(Some(s)) => s.into_owned(),
            Some(None) => return fail("\"tenant\" must be a string"),
        };
        let objective = match self.objective {
            None => Objective::Period,
            Some(Some(s)) if s == "period" => Objective::Period,
            Some(Some(s)) if s == "min_energy" => match self.target_period {
                Some(target) => Objective::MinEnergy {
                    target_period: target.into_owned(),
                },
                None => return fail("objective \"min_energy\" requires string \"target_period\""),
            },
            Some(_) => return fail("\"objective\" must be \"period\" or \"min_energy\""),
        };
        let policy = match self.policy {
            Some(s) if s.eq_ignore_ascii_case("portfolio") => Policy::Portfolio,
            Some(s) => Policy::Strategy(s.into_owned()),
            None => return fail("missing string \"policy\""),
        };
        let Some(tasks) = self.tasks else {
            return fail("missing array \"tasks\"");
        };
        if tasks.count > max_tasks {
            return fail(&format!(
                "chain has {} tasks; this server accepts at most {max_tasks}",
                tasks.count
            ));
        }
        if let Some(message) = tasks.malformed {
            return fail(message);
        }
        Ok(WireRequest::Schedule {
            request: ScheduleRequest {
                id,
                tasks: tasks.specs,
                big_cores,
                little_cores,
                policy,
                objective,
                deadline_us,
            },
            tenant,
        })
    }
}

/// The next value if it is an integer; anything else is syntax-checked
/// whole and read as `None`.
fn int(lx: &mut Lexer<'_>) -> Result<Option<u64>, JsonError> {
    match lx.token()? {
        Token::Int(n) => Ok(Some(n)),
        other => lx.tree(other).map(|_| None),
    }
}

/// The next value if it is a string; anything else is syntax-checked
/// whole and read as `None`.
fn string<'a>(lx: &mut Lexer<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    match lx.token()? {
        Token::Str(s) => Ok(Some(s)),
        other => lx.tree(other).map(|_| None),
    }
}

/// Decodes the elements of a `tasks` array whose `[` was just read.
fn tasks(lx: &mut Lexer<'_>, max_tasks: usize) -> Result<Tasks, JsonError> {
    let mut tasks = Tasks {
        specs: Vec::new(),
        count: 0,
        malformed: None,
    };
    lx.elements(|lx| {
        let item = task(lx)?;
        tasks.count += 1;
        if tasks.count <= max_tasks && tasks.malformed.is_none() {
            match item {
                Ok(spec) => tasks.specs.push(spec),
                Err(message) => tasks.malformed = Some(message),
            }
        }
        Ok(())
    })?;
    Ok(tasks)
}

/// One task item: a `[weight_big, weight_little, replicable(0|1)]`
/// triple, or the message that rejects it.
fn task(lx: &mut Lexer<'_>) -> Result<Result<TaskSpec, &'static str>, JsonError> {
    let head = lx.token()?;
    if head != Token::ArrStart {
        lx.tree(head)?;
        return Ok(Err(NOT_A_TRIPLE));
    }
    let mut ints = [0u64; 3];
    let mut len = 0;
    let mut all_ints = true;
    lx.elements(|lx| {
        match lx.token()? {
            Token::Int(n) if len < 3 => ints[len] = n,
            other => {
                lx.tree(other)?;
                all_ints = false;
            }
        }
        len += 1;
        Ok(())
    })?;
    Ok(match ints {
        [weight_big, weight_little, r] if all_ints && len == 3 && r <= 1 => Ok(TaskSpec {
            weight_big,
            weight_little,
            replicable: r == 1,
        }),
        _ => Err(BAD_TRIPLE),
    })
}

/// Renders a schedule request as one frame (the client side of
/// [`parse_request`]). `tenant` is omitted when `"public"`.
#[must_use]
pub fn render_request(request: &ScheduleRequest, tenant: &str) -> String {
    let mut fields = BTreeMap::new();
    fields.insert("id".to_string(), Json::Int(request.id));
    fields.insert("big".to_string(), Json::Int(request.big_cores));
    fields.insert("little".to_string(), Json::Int(request.little_cores));
    if let Some(us) = request.deadline_us {
        fields.insert("deadline_us".to_string(), Json::Int(us));
    }
    if tenant != "public" {
        fields.insert("tenant".to_string(), Json::Str(tenant.to_string()));
    }
    let policy = match &request.policy {
        Policy::Portfolio => "portfolio".to_string(),
        Policy::Strategy(name) => name.clone(),
    };
    fields.insert("policy".to_string(), Json::Str(policy));
    // The default period objective is omitted so legacy frames stay
    // byte-identical.
    if let Objective::MinEnergy { target_period } = &request.objective {
        fields.insert("objective".to_string(), Json::Str("min_energy".to_string()));
        fields.insert(
            "target_period".to_string(),
            Json::Str(target_period.clone()),
        );
    }
    fields.insert(
        "tasks".to_string(),
        Json::Arr(
            request
                .tasks
                .iter()
                .map(|t| {
                    Json::Arr(vec![
                        Json::Int(t.weight_big),
                        Json::Int(t.weight_little),
                        Json::Int(u64::from(t.replicable)),
                    ])
                })
                .collect(),
        ),
    );
    Json::Obj(fields).render_compact()
}

/// Appends one response frame *plus its newline* to `out` without
/// building a `Json` tree — the pump's allocation-free framing path.
///
/// Byte-identical to the tree renderer's frame + `'\n'` (canonical key
/// order is hard-coded; the equality is pinned by tests and the
/// conformance service checks). With a warm, pre-grown `out` this performs zero
/// heap allocations for success frames.
pub fn render_response_line(response: &ScheduleResponse, out: &mut String) {
    match &response.result {
        Ok(outcome) => render_outcome_line(response.id, outcome, outcome.cache_hit, out),
        Err(e) => render_error_line(Some(response.id), e.code(), &e.to_string(), out),
    }
}

/// Appends the success frame of request `id` plus its newline to `out`,
/// rendering `outcome` by reference with `cache_hit` in place of its own
/// flag: the same bytes [`render_response_line`] writes for a response
/// carrying `outcome` with that flag. A shared cached outcome is served
/// this way without copying it.
pub fn render_outcome_line(id: u64, outcome: &ScheduleOutcome, cache_hit: bool, out: &mut String) {
    // Keys in canonical (sorted) order: id < ok; inside ok:
    // cache_hit < complete < decomposition < energy_mw < period
    // < stages < strategy < used_big < used_little.
    out.push_str("{\"id\":");
    push_u64(out, id);
    out.push_str(",\"ok\":{\"cache_hit\":");
    out.push_str(bool_str(cache_hit));
    out.push_str(",\"complete\":");
    out.push_str(bool_str(outcome.complete));
    out.push_str(",\"decomposition\":");
    push_escaped(out, &outcome.decomposition);
    if let Some(mw) = outcome.energy_milliwatts {
        out.push_str(",\"energy_mw\":");
        push_u64(out, mw);
    }
    out.push_str(",\"period\":");
    push_escaped(out, &outcome.period);
    out.push_str(",\"stages\":[");
    for (i, s) in outcome.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_u64(out, s.start as u64);
        out.push(',');
        push_u64(out, s.end as u64);
        out.push(',');
        push_u64(out, s.cores);
        out.push_str(match s.core_type {
            CoreType::Big => ",\"B\"]",
            CoreType::Little => ",\"L\"]",
        });
    }
    out.push_str("],\"strategy\":");
    push_escaped(out, &outcome.strategy);
    out.push_str(",\"used_big\":");
    push_u64(out, outcome.used_big);
    out.push_str(",\"used_little\":");
    push_u64(out, outcome.used_little);
    out.push_str("}}\n");
}

/// Appends one error frame plus its newline to `out`; byte-identical to
/// the tree renderer's frame + `'\n'` (canonical key order: err < id).
pub fn render_error_line(id: Option<u64>, code: &str, message: &str, out: &mut String) {
    out.push_str("{\"err\":{\"code\":");
    push_escaped(out, code);
    out.push_str(",\"message\":");
    push_escaped(out, message);
    out.push('}');
    if let Some(id) = id {
        out.push_str(",\"id\":");
        push_u64(out, id);
    }
    out.push_str("}\n");
}

fn bool_str(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

/// Appends decimal digits without going through `core::fmt` (and
/// without allocating).
fn push_u64(out: &mut String, mut n: u64) {
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
    // The buffer holds only ASCII digits.
    out.push_str(std::str::from_utf8(&tmp[i..]).expect("digits are UTF-8"));
}

/// Mirrors the canonical codec's string escaping exactly (pinned by the
/// bit-identity tests below).
fn push_escaped(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A response frame as the client sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientResponse {
    /// Echoed correlation id, when the server could recover one.
    pub id: Option<u64>,
    /// `Ok(payload)` for success frames, `Err((code, message))` for
    /// error frames.
    pub result: Result<Json, (String, String)>,
}

/// Parses a response frame (the client side).
pub fn parse_response(line: &str) -> Result<ClientResponse, WireError> {
    let value = Json::parse(line).map_err(|e| WireError::parse(e.to_string()))?;
    let Json::Obj(mut fields) = value else {
        return Err(WireError::parse("response must be a JSON object"));
    };
    let id = match fields.get("id") {
        Some(Json::Int(n)) => Some(*n),
        _ => None,
    };
    if let Some(ok) = fields.remove("ok") {
        return Ok(ClientResponse { id, result: Ok(ok) });
    }
    match fields.remove("err") {
        Some(Json::Obj(err)) => {
            let text = |key: &str| match err.get(key) {
                Some(Json::Str(s)) => s.clone(),
                _ => String::new(),
            };
            Ok(ClientResponse {
                id,
                result: Err((text("code"), text("message"))),
            })
        }
        _ => Err(WireError::parse("response has neither \"ok\" nor \"err\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::sched::Scheduler;
    use amp_core::{Resources, Task, TaskChain};
    use amp_service::ScheduleOutcome;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Renders an outcome as the `ok` payload.
    fn outcome_json(outcome: &ScheduleOutcome) -> Json {
        let mut fields = BTreeMap::new();
        fields.insert("strategy".to_string(), Json::Str(outcome.strategy.clone()));
        fields.insert("period".to_string(), Json::Str(outcome.period.clone()));
        fields.insert(
            "decomposition".to_string(),
            Json::Str(outcome.decomposition.clone()),
        );
        fields.insert(
            "stages".to_string(),
            Json::Arr(
                outcome
                    .stages
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::Int(s.start as u64),
                            Json::Int(s.end as u64),
                            Json::Int(s.cores),
                            Json::Str(
                                match s.core_type {
                                    CoreType::Big => "B",
                                    CoreType::Little => "L",
                                }
                                .to_string(),
                            ),
                        ])
                    })
                    .collect(),
            ),
        );
        fields.insert("used_big".to_string(), Json::Int(outcome.used_big));
        fields.insert("used_little".to_string(), Json::Int(outcome.used_little));
        fields.insert("cache_hit".to_string(), Json::Bool(outcome.cache_hit));
        fields.insert("complete".to_string(), Json::Bool(outcome.complete));
        // Present exactly when the request's objective was energy; period
        // responses stay byte-identical to the pre-energy wire.
        if let Some(mw) = outcome.energy_milliwatts {
            fields.insert("energy_mw".to_string(), Json::Int(mw));
        }
        Json::Obj(fields)
    }

    /// Renders an engine response as one frame (no trailing newline) through
    /// the `Json` tree: the oracle that the streaming renderers are tested
    /// against.
    fn render_response(response: &ScheduleResponse) -> String {
        match &response.result {
            Ok(outcome) => {
                let mut fields = BTreeMap::new();
                fields.insert("id".to_string(), Json::Int(response.id));
                fields.insert("ok".to_string(), outcome_json(outcome));
                Json::Obj(fields).render_compact()
            }
            Err(e) => render_error(Some(response.id), e.code(), &e.to_string()),
        }
    }

    /// Renders an error frame (no trailing newline) through the `Json` tree,
    /// the oracle for [`render_error_line`]. `id` is echoed when the
    /// offending frame carried one.
    fn render_error(id: Option<u64>, code: &str, message: &str) -> String {
        let mut err = BTreeMap::new();
        err.insert("code".to_string(), Json::Str(code.to_string()));
        err.insert("message".to_string(), Json::Str(message.to_string()));
        let mut fields = BTreeMap::new();
        if let Some(id) = id {
            fields.insert("id".to_string(), Json::Int(id));
        }
        fields.insert("err".to_string(), Json::Obj(err));
        Json::Obj(fields).render_compact()
    }

    fn request() -> ScheduleRequest {
        let chain = TaskChain::new(vec![
            Task::new(10, 25, false),
            Task::new(40, 90, true),
            Task::new(5, 12, false),
        ]);
        ScheduleRequest::from_chain(
            7,
            &chain,
            Resources::new(2, 2),
            Policy::Strategy("HeRAD".to_string()),
        )
    }

    /// The tree-walking decoder that `parse_request` replaced: parse the
    /// whole frame with `Json::parse`, then look the fields up in the
    /// tree. It is the oracle the one-pass decoder must match exactly.
    fn reference(line: &str, max_tasks: usize) -> Result<WireRequest, (Option<u64>, WireError)> {
        let value = Json::parse(line).map_err(|e| (None, WireError::parse(e.to_string())))?;
        let Json::Obj(fields) = value else {
            return Err((None, WireError::parse("frame must be a JSON object")));
        };
        // Recover the id first so even malformed schedule frames reject
        // with a correlatable error.
        let id = match fields.get("id") {
            Some(Json::Int(n)) => Some(*n),
            _ => None,
        };
        let fail = |id: Option<u64>, e: WireError| Err((id, e));
        if let Some(op) = fields.get("op") {
            return match op {
                Json::Str(s) if s == "status" => Ok(WireRequest::Status),
                Json::Str(s) if s == "ping" => Ok(WireRequest::Ping),
                other => fail(
                    id,
                    WireError::bad_request(format!("unknown op {}", other.render_compact())),
                ),
            };
        }
        let Some(id) = id else {
            return fail(None, WireError::bad_request("missing integer \"id\""));
        };
        let int_field = |name: &str| -> Result<u64, (Option<u64>, WireError)> {
            match fields.get(name) {
                Some(Json::Int(n)) => Ok(*n),
                _ => Err((
                    Some(id),
                    WireError::bad_request(format!("missing integer {name:?}")),
                )),
            }
        };
        let big_cores = int_field("big")?;
        let little_cores = int_field("little")?;
        let deadline_us = match fields.get("deadline_us") {
            None => None,
            Some(Json::Int(n)) => Some(*n),
            Some(_) => {
                return fail(
                    Some(id),
                    WireError::bad_request("\"deadline_us\" must be an integer"),
                )
            }
        };
        let tenant = match fields.get("tenant") {
            None => "public".to_string(),
            Some(Json::Str(s)) => s.clone(),
            Some(_) => {
                return fail(
                    Some(id),
                    WireError::bad_request("\"tenant\" must be a string"),
                )
            }
        };
        let objective = match fields.get("objective") {
            None => Objective::Period,
            Some(Json::Str(s)) if s == "period" => Objective::Period,
            Some(Json::Str(s)) if s == "min_energy" => match fields.get("target_period") {
                Some(Json::Str(target)) => Objective::MinEnergy {
                    target_period: target.clone(),
                },
                _ => {
                    return fail(
                        Some(id),
                        WireError::bad_request(
                            "objective \"min_energy\" requires string \"target_period\"",
                        ),
                    )
                }
            },
            Some(_) => {
                return fail(
                    Some(id),
                    WireError::bad_request("\"objective\" must be \"period\" or \"min_energy\""),
                )
            }
        };
        let policy = match fields.get("policy") {
            Some(Json::Str(s)) if s.eq_ignore_ascii_case("portfolio") => Policy::Portfolio,
            Some(Json::Str(s)) => Policy::Strategy(s.clone()),
            _ => {
                return fail(
                    Some(id),
                    WireError::bad_request("missing string \"policy\""),
                )
            }
        };
        let Some(Json::Arr(raw_tasks)) = fields.get("tasks") else {
            return fail(Some(id), WireError::bad_request("missing array \"tasks\""));
        };
        if raw_tasks.len() > max_tasks {
            return fail(
                Some(id),
                WireError::bad_request(format!(
                    "chain has {} tasks; this server accepts at most {max_tasks}",
                    raw_tasks.len()
                )),
            );
        }
        let mut tasks = Vec::with_capacity(raw_tasks.len());
        for t in raw_tasks {
            let Json::Arr(triple) = t else {
                return fail(
                    Some(id),
                    WireError::bad_request("each task must be a [big, little, replicable] triple"),
                );
            };
            match triple.as_slice() {
                [Json::Int(wb), Json::Int(wl), Json::Int(r)] if *r <= 1 => tasks.push(TaskSpec {
                    weight_big: *wb,
                    weight_little: *wl,
                    replicable: *r == 1,
                }),
                _ => {
                    return fail(
                        Some(id),
                        WireError::bad_request(
                            "each task must be [weight_big, weight_little, replicable(0|1)]",
                        ),
                    )
                }
            }
        }
        Ok(WireRequest::Schedule {
            request: ScheduleRequest {
                id,
                tasks,
                big_cores,
                little_cores,
                policy,
                objective,
                deadline_us,
            },
            tenant,
        })
    }

    /// A seeded request in every shape clients send: period and
    /// `min_energy` objectives, deadlines, tenants needing escapes or
    /// multi-byte UTF-8, portfolio and single strategies.
    fn seeded_frame(seed: u64) -> String {
        let mut rng = StdRng::seed_from_u64(seed);
        let tasks = (0..rng.gen_range(1..=8))
            .map(|_| TaskSpec {
                weight_big: rng.gen_range(1..2000),
                weight_little: rng.gen_range(1..5000),
                replicable: rng.gen_bool(0.5),
            })
            .collect();
        let policy = match rng.gen_range(0..4) {
            0 => Policy::Portfolio,
            1 => Policy::Strategy("HeRAD".to_string()),
            2 => Policy::Strategy("FERTAC".to_string()),
            _ => Policy::Strategy("2CATAC".to_string()),
        };
        let objective = if rng.gen_bool(0.3) {
            Objective::MinEnergy {
                target_period: format!("{}/{}", rng.gen_range(1..900), rng.gen_range(1..9)),
            }
        } else {
            Objective::Period
        };
        let request = ScheduleRequest {
            id: rng.gen_range(0..u64::MAX),
            tasks,
            big_cores: rng.gen_range(0..16),
            little_cores: rng.gen_range(0..16),
            policy,
            objective,
            deadline_us: rng.gen_bool(0.5).then(|| rng.gen_range(0..100_000)),
        };
        let tenant = [
            "public",
            "acme",
            "t\u{e9}n\"ant\\\u{20ac}",
            "\u{1d11e}\n\t\u{1}x",
        ]
        .choose(&mut rng)
        .expect("non-empty");
        render_request(&request, tenant)
    }

    /// Values to splice into members: every JSON kind, the strings the
    /// field checks look for, the number forms the codec rejects, escapes,
    /// and nested values hiding a duplicate key.
    const VALUES: &[&str] = &[
        "null",
        "true",
        "0",
        "7",
        "\"x\"",
        "[]",
        "{}",
        "[[1,2,0]]",
        "\"status\"",
        "\"ping\"",
        "\"min_energy\"",
        "\"period\"",
        "\"PortFolio\"",
        "\"5/2\"",
        "\"\\u0048eRAD\"",
        "{\"a\":1,\"a\":2}",
        "[{\"b\":{\"c\":1,\"c\":2}}]",
        "007",
        "1.5",
        "-3",
        "1e9",
        "\"\\u0041\\u00e9\"",
        "\"\\ud800\"",
    ];

    /// Syntactically valid values, mostly of a type no field wants:
    /// retyping several members at once with these makes frames fail
    /// more than one field check, which pins the order of the checks.
    const WELL_FORMED: &[&str] = &["null", "true", "\"x\"", "7", "[]", "{}", "[[1,2,0]]"];

    /// Keys to splice in: the protocol's, unknown ones, and escaped
    /// spellings of known ones.
    const KEYS: &[&str] = &[
        "\"op\"",
        "\"id\"",
        "\"big\"",
        "\"little\"",
        "\"deadline_us\"",
        "\"tenant\"",
        "\"objective\"",
        "\"target_period\"",
        "\"policy\"",
        "\"tasks\"",
        "\"extra\"",
        "\"\\u0069d\"",
        "\"t\\u0061sks\"",
    ];

    /// Task items that are not well-formed triples, and one that is.
    const TASKS: &[&str] = &[
        "[1,2]",
        "[1,2,0,4]",
        "[1,2,2]",
        "{\"a\":1}",
        "3",
        "[1,\"2\",0]",
        "[1,2,true]",
        "[01,2,0]",
        "[1,2,-1]",
        "[1.5,2,0]",
        "[[1],2,0]",
        "[5,6,1]",
    ];

    /// A frame's members as `(key, value)` source text.
    fn members(frame: &str) -> Vec<(String, String)> {
        let Ok(Json::Obj(fields)) = Json::parse(frame) else {
            panic!("seeded frames are objects")
        };
        fields
            .into_iter()
            .map(|(k, v)| (Json::Str(k).render_compact(), v.render_compact()))
            .collect()
    }

    fn assemble(members: &[(String, String)]) -> String {
        let body: Vec<String> = members.iter().map(|(k, v)| format!("{k}:{v}")).collect();
        format!("{{{}}}", body.join(","))
    }

    fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
        from.choose(rng).expect("non-empty")
    }

    /// One seeded mutation of a frame, from member-level edits (reorder,
    /// splice, repeat, drop, malformed or surplus tasks) to text-level
    /// ones (whitespace, non-object roots).
    fn mutate(frame: &str, rng: &mut StdRng) -> String {
        let mut m = members(frame);
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(0..m.len());
            match rng.gen_range(0..9) {
                0 => m.shuffle(rng),
                1 => m[at].1 = pick(rng, VALUES).to_string(),
                2 => {
                    let member = (pick(rng, KEYS).to_string(), pick(rng, VALUES).to_string());
                    m.insert(at, member);
                }
                3 => {
                    let again = m[at].clone();
                    m.push(again);
                }
                4 => {
                    m.remove(at);
                    if m.is_empty() {
                        break;
                    }
                }
                5 => {
                    for member in &mut m {
                        if rng.gen_bool(0.5) {
                            member.1 = pick(rng, WELL_FORMED).to_string();
                        }
                    }
                }
                6 => {
                    let key = pick(rng, &["\"extra\"", "\"n\\u00f6te\""]).to_string();
                    m.insert(at, (key.clone(), pick(rng, VALUES).to_string()));
                    m.push((key, pick(rng, VALUES).to_string()));
                }
                _ => {
                    let Some(tasks) = m.iter_mut().find(|(k, _)| k == "\"tasks\"") else {
                        continue;
                    };
                    let Ok(Json::Arr(items)) = Json::parse(&tasks.1) else {
                        continue;
                    };
                    let mut items: Vec<String> = items.iter().map(Json::render_compact).collect();
                    if rng.gen_bool(0.5) {
                        for _ in 0..rng.gen_range(1..=3) {
                            let i = rng.gen_range(0..=items.len());
                            items.insert(i, pick(rng, TASKS).to_string());
                        }
                    } else {
                        for _ in 0..rng.gen_range(1..12) {
                            items.push("[3,4,1]".to_string());
                        }
                    }
                    tasks.1 = format!("[{}]", items.join(","));
                }
            }
        }
        let mut text = assemble(&m);
        for _ in 0..rng.gen_range(0..4) {
            let mut at = rng.gen_range(0..=text.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            text.insert_str(at, pick(rng, &[" ", "\n", "\t", "\r", "  "]));
        }
        match rng.gen_range(0..12) {
            0 => format!("[{text}]"),
            1 => pick(rng, &["42", "\"frame\"", "null", "[]", "true"]).to_string(),
            _ => text,
        }
    }

    /// Checks one frame; returns the outcome as `ok` or `CODE message`.
    fn assert_same(line: &str, max_tasks: usize) -> String {
        let got = parse_request(line, max_tasks);
        assert_eq!(
            got,
            reference(line, max_tasks),
            "{line:?} with max_tasks {max_tasks}"
        );
        got.map_or_else(
            |(_, e)| format!("{} {}", e.code, e.message),
            |_| "ok".into(),
        )
    }

    /// The one-pass decoder answers every frame exactly as the tree walk
    /// did — the same request, or the same `(id, code, message)` — on
    /// seeded client frames, on mutations of them, and on every strict
    /// prefix of them.
    #[test]
    fn decoder_matches_the_tree_walk() {
        let mut seen = BTreeSet::new();
        for seed in 0..300 {
            let frame = seeded_frame(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            assert_eq!(assert_same(&frame, 64), "ok", "{frame}");
            for cut in (0..frame.len()).filter(|&c| frame.is_char_boundary(c)) {
                seen.insert(assert_same(&frame[..cut], 64));
            }
            for _ in 0..40 {
                let line = mutate(&frame, &mut rng);
                seen.insert(assert_same(&line, rng.gen_range(0..12)));
            }
        }
        // The seeds reach every field check and the syntax errors that
        // must outrank them.
        for outcome in [
            "ok",
            "BAD_REQUEST unknown op",
            "BAD_REQUEST missing integer \"id\"",
            "BAD_REQUEST missing integer \"big\"",
            "BAD_REQUEST missing integer \"little\"",
            "BAD_REQUEST \"deadline_us\" must be an integer",
            "BAD_REQUEST \"tenant\" must be a string",
            "BAD_REQUEST objective \"min_energy\" requires string \"target_period\"",
            "BAD_REQUEST \"objective\" must be",
            "BAD_REQUEST missing string \"policy\"",
            "BAD_REQUEST missing array \"tasks\"",
            "BAD_REQUEST chain has",
            NOT_A_TRIPLE,
            BAD_TRIPLE,
            "PARSE_ERROR frame must be a JSON object",
            "duplicate key",
            "leading zeros",
            "floats are not",
            "negative numbers",
            "escape",
            "unexpected end of input",
        ] {
            assert!(
                seen.iter().any(|s: &String| s.contains(outcome)),
                "no seed reached {outcome:?}"
            );
        }
    }

    #[test]
    fn request_round_trips_through_the_wire() {
        let req = request();
        let line = render_request(&req, "acme");
        assert!(!line.contains('\n'));
        match parse_request(&line, 64).expect("parses") {
            WireRequest::Schedule { request, tenant } => {
                assert_eq!(request, req);
                assert_eq!(tenant, "acme");
            }
            other => panic!("expected schedule, got {other:?}"),
        }
        // Default tenant and portfolio policy.
        let mut req = request();
        req.policy = Policy::Portfolio;
        req.deadline_us = Some(1500);
        match parse_request(&render_request(&req, "public"), 64).expect("parses") {
            WireRequest::Schedule { request, tenant } => {
                assert_eq!(request, req);
                assert_eq!(tenant, "public");
            }
            other => panic!("expected schedule, got {other:?}"),
        }
    }

    #[test]
    fn control_frames_parse() {
        assert_eq!(
            parse_request("{\"op\":\"status\"}", 8).expect("status"),
            WireRequest::Status
        );
        assert_eq!(
            parse_request("{\"op\":\"ping\"}", 8).expect("ping"),
            WireRequest::Ping
        );
        let (_, err) = parse_request("{\"op\":\"reboot\"}", 8).unwrap_err();
        assert_eq!(err.code, "BAD_REQUEST");
    }

    #[test]
    fn malformed_frames_reject_with_recovered_id() {
        // Garbage: no id recoverable.
        let (id, err) = parse_request("not json at all", 8).unwrap_err();
        assert_eq!((id, err.code), (None, "PARSE_ERROR"));
        // Truncated JSON is a parse error, not a panic.
        let line = render_request(&request(), "public");
        let (_, err) = parse_request(&line[..line.len() - 3], 8).unwrap_err();
        assert_eq!(err.code, "PARSE_ERROR");
        // Structurally valid but missing fields: id comes back.
        let (id, err) = parse_request("{\"id\":42,\"policy\":\"HeRAD\"}", 8).unwrap_err();
        assert_eq!((id, err.code), (Some(42), "BAD_REQUEST"));
        // Oversized chains are refused before allocation.
        let line = render_request(&request(), "public");
        let (id, err) = parse_request(&line, 2).unwrap_err();
        assert_eq!((id, err.code), (Some(7), "BAD_REQUEST"));
        assert!(err.message.contains("at most 2"), "{}", err.message);
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let depth = 10_000;
        let deep = |prefix: &str| format!("{prefix}{}{}}}", "[".repeat(depth), "]".repeat(depth));
        // Under an unknown key, under `tasks`, and as a task item: the
        // cap is a syntax error (no id), at the bracket past the cap.
        for (prefix, open) in [
            ("{\"x\":", 1),
            ("{\"id\":3,\"tasks\":", 1),
            ("{\"id\":3,\"tasks\":[[1,2,1],", 2),
        ] {
            let (id, err) = parse_request(&deep(prefix), 8).unwrap_err();
            assert_eq!((id, err.code), (None, "PARSE_ERROR"), "{prefix}");
            let offset = prefix.len() + amp_core::json::MAX_DEPTH - open;
            assert!(
                err.message
                    .ends_with(&format!("byte {offset}: nesting deeper than 128 levels")),
                "{prefix}: {}",
                err.message
            );
        }
        // Nesting within the cap is only a shape problem: the id survives.
        let inner = amp_core::json::MAX_DEPTH - 2;
        let line = format!(
            "{{\"id\":3,\"x\":{}{}}}",
            "[".repeat(inner),
            "]".repeat(inner)
        );
        let (id, err) = parse_request(&line, 8).unwrap_err();
        assert_eq!((id, err.code), (Some(3), "BAD_REQUEST"));
    }

    #[test]
    fn responses_round_trip_ok_and_err() {
        let req = request();
        let chain = req.chain();
        let solution = amp_core::sched::Fertac
            .schedule(&chain, req.resources())
            .expect("feasible");
        let outcome = ScheduleOutcome::from_solution("FERTAC", &solution, &chain, true);
        let ok_line = render_response(&ScheduleResponse {
            id: 7,
            result: Ok(outcome.clone()),
        });
        assert!(!ok_line.contains('\n'));
        let parsed = parse_response(&ok_line).expect("parses");
        assert_eq!(parsed.id, Some(7));
        let payload = parsed.result.expect("ok frame");
        let Json::Obj(fields) = payload else {
            panic!("payload must be an object")
        };
        assert_eq!(
            fields.get("period"),
            Some(&Json::Str(outcome.period.clone()))
        );
        assert_eq!(fields.get("cache_hit"), Some(&Json::Bool(false)));
        assert_eq!(
            fields.get("stages").map(|s| matches!(s, Json::Arr(_))),
            Some(true)
        );

        let err_line = render_response(&ScheduleResponse {
            id: 9,
            result: Err(amp_service::ServiceError::Overloaded),
        });
        let parsed = parse_response(&err_line).expect("parses");
        assert_eq!(parsed.id, Some(9));
        let (code, message) = parsed.result.unwrap_err();
        assert_eq!(code, "OVERLOADED");
        assert!(!message.is_empty());

        // Transport-level error without an id.
        let line = render_error(None, "FRAME_TOO_LARGE", "line exceeded 65536 bytes");
        let parsed = parse_response(&line).expect("parses");
        assert_eq!(parsed.id, None);
        assert_eq!(parsed.result.unwrap_err().0, "FRAME_TOO_LARGE");
    }

    #[test]
    fn energy_objective_round_trips_through_the_wire() {
        let req = request().with_objective(Objective::MinEnergy {
            target_period: "5/2".to_string(),
        });
        let line = render_request(&req, "public");
        assert!(line.contains("\"objective\":\"min_energy\""));
        assert!(line.contains("\"target_period\":\"5/2\""));
        match parse_request(&line, 64).expect("parses") {
            WireRequest::Schedule { request, .. } => assert_eq!(request, req),
            other => panic!("expected schedule, got {other:?}"),
        }
        // An explicit "period" objective parses to the default.
        let line = "{\"id\":7,\"policy\":\"HeRAD\",\"big\":2,\"little\":2,\
                    \"objective\":\"period\",\"tasks\":[[10,25,0]]}";
        match parse_request(line, 64).expect("parses") {
            WireRequest::Schedule { request, .. } => {
                assert_eq!(request.objective, Objective::Period);
            }
            other => panic!("expected schedule, got {other:?}"),
        }
        // min_energy without a target is a correlatable rejection.
        let line = "{\"id\":7,\"policy\":\"HeRAD\",\"big\":2,\"little\":2,\
                    \"objective\":\"min_energy\",\"tasks\":[[10,25,0]]}";
        let (id, err) = parse_request(line, 64).unwrap_err();
        assert_eq!((id, err.code), (Some(7), "BAD_REQUEST"));
        assert!(err.message.contains("target_period"), "{}", err.message);
        // Unknown objectives are rejected, not silently defaulted.
        let line = "{\"id\":7,\"policy\":\"HeRAD\",\"big\":2,\"little\":2,\
                    \"objective\":\"min_carbon\",\"tasks\":[[10,25,0]]}";
        let (id, err) = parse_request(line, 64).unwrap_err();
        assert_eq!((id, err.code), (Some(7), "BAD_REQUEST"));
    }

    /// Backward-compatibility pin: a default-objective request renders
    /// the exact pre-energy frame (no `objective` key), and a
    /// default-objective response renders the exact pre-energy payload
    /// (no `energy_mw` key). Byte-for-byte, so pre-PR clients and
    /// recorded traffic stay valid.
    #[test]
    fn default_objective_frames_are_bit_identical_to_pre_energy_wire() {
        let chain = TaskChain::new(vec![Task::new(10, 25, false), Task::new(40, 90, true)]);
        let req = ScheduleRequest::from_chain(
            3,
            &chain,
            Resources::new(2, 1),
            Policy::Strategy("FERTAC".to_string()),
        );
        assert_eq!(
            render_request(&req, "public"),
            "{\"big\":2,\"id\":3,\"little\":1,\"policy\":\"FERTAC\",\
             \"tasks\":[[10,25,0],[40,90,1]]}"
        );
        let solution = amp_core::sched::Fertac
            .schedule(&chain, req.resources())
            .expect("feasible");
        let outcome = ScheduleOutcome::from_solution("FERTAC", &solution, &chain, true);
        let line = render_response(&ScheduleResponse {
            id: 3,
            result: Ok(outcome.clone()),
        });
        assert!(!line.contains("energy_mw"));
        assert_eq!(
            line,
            format!(
                "{{\"id\":3,\"ok\":{{\"cache_hit\":false,\"complete\":true,\
                 \"decomposition\":\"{}\",\"period\":\"{}\",\"stages\":{},\
                 \"strategy\":\"FERTAC\",\"used_big\":{},\"used_little\":{}}}}}",
                outcome.decomposition,
                outcome.period,
                Json::Arr(
                    outcome
                        .stages
                        .iter()
                        .map(|s| Json::Arr(vec![
                            Json::Int(s.start as u64),
                            Json::Int(s.end as u64),
                            Json::Int(s.cores),
                            Json::Str(
                                match s.core_type {
                                    CoreType::Big => "B",
                                    CoreType::Little => "L",
                                }
                                .to_string()
                            ),
                        ]))
                        .collect()
                )
                .render_compact(),
                outcome.used_big,
                outcome.used_little,
            )
        );
        // The energy figure appears if and only if the outcome carries one.
        let energized = outcome.with_energy_milliwatts(4321);
        let line = render_response(&ScheduleResponse {
            id: 3,
            result: Ok(energized),
        });
        assert!(line.contains("\"energy_mw\":4321"));
    }

    /// Every response the streaming renderer can produce must be
    /// byte-identical to the tree renderer plus a newline — including
    /// energy frames, errors with and without ids, and strings needing
    /// every escape class.
    #[test]
    fn streaming_renderer_matches_tree_renderer_bit_for_bit() {
        let req = request();
        let chain = req.chain();
        let solution = amp_core::sched::Fertac
            .schedule(&chain, req.resources())
            .expect("feasible");
        let base = ScheduleOutcome::from_solution("FERTAC", &solution, &chain, true);
        let mut cached = base.clone();
        cached.cache_hit = true;
        let mut nasty = base.clone();
        nasty.strategy = "we\"ird\\str\nat\regy\tname\u{1}".to_string();
        nasty.decomposition = "π→∞ \u{7}".to_string();
        let responses = vec![
            ScheduleResponse {
                id: 0,
                result: Ok(base.clone()),
            },
            ScheduleResponse {
                id: u64::MAX,
                result: Ok(cached),
            },
            ScheduleResponse {
                id: 1234567890123,
                result: Ok(base.clone().with_energy_milliwatts(98765)),
            },
            ScheduleResponse {
                id: 17,
                result: Ok(nasty),
            },
            ScheduleResponse {
                id: 9,
                result: Err(amp_service::ServiceError::Overloaded),
            },
        ];
        let mut out = String::new();
        for resp in &responses {
            out.clear();
            render_response_line(resp, &mut out);
            assert_eq!(out, format!("{}\n", render_response(resp)), "{resp:?}");
        }
        // By reference, with the hit flag as an argument: the bytes of a
        // response whose outcome carries that flag.
        for resp in &responses {
            let Ok(outcome) = &resp.result else {
                continue;
            };
            for cache_hit in [false, true] {
                out.clear();
                render_outcome_line(resp.id, outcome, cache_hit, &mut out);
                let flagged = ScheduleResponse {
                    id: resp.id,
                    result: Ok(ScheduleOutcome {
                        cache_hit,
                        ..outcome.clone()
                    }),
                };
                assert_eq!(out, format!("{}\n", render_response(&flagged)));
            }
        }
        // Error frames, with and without ids, through the error path.
        for (id, code, msg) in [
            (
                Some(42),
                "QUOTA_EXCEEDED",
                "tenant \"acme\" is\nover\tbudget",
            ),
            (None, "FRAME_TOO_LARGE", "line exceeded 65536 bytes"),
        ] {
            out.clear();
            render_error_line(id, code, msg, &mut out);
            assert_eq!(out, format!("{}\n", render_error(id, code, msg)));
        }
    }

    /// The warm streaming renderer reuses its buffer: rendering the same
    /// frame twice into a pre-grown `String` must not reallocate.
    #[test]
    fn streaming_renderer_reuses_a_warm_buffer() {
        let req = request();
        let chain = req.chain();
        let solution = amp_core::sched::Fertac
            .schedule(&chain, req.resources())
            .expect("feasible");
        let resp = ScheduleResponse {
            id: 7,
            result: Ok(ScheduleOutcome::from_solution(
                "FERTAC", &solution, &chain, true,
            )),
        };
        let mut out = String::new();
        render_response_line(&resp, &mut out);
        let warm_cap = out.capacity();
        out.clear();
        render_response_line(&resp, &mut out);
        assert_eq!(out.capacity(), warm_cap, "warm render must not regrow");
    }
}
