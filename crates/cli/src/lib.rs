//! Command implementations for the `arbitrex` CLI.
//!
//! Separated from `main.rs` so every command is unit-testable: each
//! command takes parsed arguments and returns the text it would print.
//!
//! Errors carry an [`ErrorKind`] that maps to a distinct process exit
//! code, so scripts can tell a parse error from a budget trip without
//! scraping stderr. Budgeted execution (`--timeout-ms`, `--max-steps`,
//! `--max-conflicts`, `--max-models`, `--fault`) routes through the
//! `try_*_with_budget` entry points of `arbitrex-core` and degrades
//! gracefully: an exhausted budget reports the partial result on stderr
//! and exits with [`ErrorKind::Budget`]'s code instead of panicking.

use std::time::Duration;

use arbitrex_core::arbitration::try_arbitrate_with_budget;
use arbitrex_core::satbackend::{
    dalal_revision_sat_budgeted, models_via_sat, odist_fitting_sat_budgeted,
};
use arbitrex_core::{
    budgeted_operator, budgeted_operator_names, operator, Budget, BudgetSpent, ChangeOperator,
    CoreError, DalalRevision, FaultFamily, FaultPlan, FaultSite, Faults, OdistFitting, Quality,
    OPERATOR_NAMES,
};
use arbitrex_logic::{parse, Formula, ModelSet, Sig, ENUM_LIMIT, MAX_VARS};
use arbitrex_merge::{
    ask, merge_egalitarian, merge_majority, merge_weighted_arbitration,
    merge_weighted_arbitration_with_budget, Source,
};

/// What went wrong, at the granularity scripts care about. Each kind maps
/// to a distinct process exit code via [`ErrorKind::exit_code`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Any failure not covered by a more specific kind (exit code 1).
    Generic = 1,
    /// Bad command line: unknown command/operator/flag or missing
    /// arguments (exit code 2).
    Usage = 2,
    /// A formula failed to parse (exit code 3).
    Parse = 3,
    /// The signature is too wide for exhaustive enumeration, or a SAT
    /// model limit was exceeded (exit code 4).
    Limit = 4,
    /// An execution budget tripped; the message carries the degraded
    /// partial result (exit code 5).
    Budget = 5,
}

impl ErrorKind {
    /// The process exit code for this kind of error.
    pub fn exit_code(self) -> i32 {
        self as i32
    }

    /// Stable snake_case name (used in messages and tests).
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Generic => "generic",
            ErrorKind::Usage => "usage",
            ErrorKind::Parse => "parse",
            ErrorKind::Limit => "limit",
            ErrorKind::Budget => "budget",
        }
    }
}

/// A CLI-level error: a user-facing message plus the [`ErrorKind`] that
/// decides the process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Which exit code this error maps to.
    pub kind: ErrorKind,
    /// The user-facing message (printed to stderr by `main`).
    pub message: String,
}

impl CliError {
    /// An error of the given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> CliError {
        CliError {
            kind,
            message: message.into(),
        }
    }

    /// A command-line usage error (exit code 2).
    pub fn usage(message: impl Into<String>) -> CliError {
        CliError::new(ErrorKind::Usage, message)
    }

    /// A formula parse error (exit code 3).
    pub fn parse(message: impl Into<String>) -> CliError {
        CliError::new(ErrorKind::Parse, message)
    }

    /// An enumeration/model limit error (exit code 4).
    pub fn limit(message: impl Into<String>) -> CliError {
        CliError::new(ErrorKind::Limit, message)
    }

    /// A budget-exhaustion error (exit code 5).
    pub fn budget(message: impl Into<String>) -> CliError {
        CliError::new(ErrorKind::Budget, message)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::usage(msg))
}

fn limit_err(e: CoreError) -> CliError {
    CliError::limit(e.to_string())
}

fn unknown_operator(op_name: &str) -> CliError {
    CliError::usage(format!(
        "unknown operator `{op_name}` (expected one of: {})",
        OPERATOR_NAMES.join(", ")
    ))
}

fn check_width(n: u32) -> Result<(), CliError> {
    if n > ENUM_LIMIT {
        Err(CliError::limit(format!(
            "formulas over {n} variables exceed the enumeration limit of {ENUM_LIMIT}"
        )))
    } else {
        Ok(())
    }
}

/// Parse `text` into `sig`, prefixing a syntax error's message with
/// `context`. An input naming more variables than an interpretation holds
/// is a limit error: it is too wide for every backend, not malformed.
fn parse_text(sig: &mut Sig, text: &str, context: &str) -> Result<Formula, CliError> {
    parse(sig, text).map_err(|e| {
        if e.is_too_many_vars() {
            CliError::limit(format!(
                "formulas over more than {MAX_VARS} variables exceed every backend's limit"
            ))
        } else {
            CliError::parse(format!("{context}{e}"))
        }
    })
}

/// Parse ψ and μ over one signature, with at least one variable.
fn parse_both(psi: &str, mu: &str) -> Result<(Sig, Formula, Formula), CliError> {
    let mut sig = Sig::new();
    let psi = parse_text(&mut sig, psi, "in ψ: ")?;
    let mu = parse_text(&mut sig, mu, "in μ: ")?;
    if sig.is_empty() {
        // Constant-only formulas still need one variable to enumerate over.
        sig.var("p");
    }
    Ok((sig, psi, mu))
}

/// [`parse_both`], refusing signatures too wide to enumerate.
fn parse_enumerable(psi: &str, mu: &str) -> Result<(Sig, Formula, Formula), CliError> {
    let parsed = parse_both(psi, mu)?;
    check_width(parsed.0.width())?;
    Ok(parsed)
}

/// Describe a trip for error messages: the `Exhausted` record when the
/// budget saw one, a generic phrase otherwise.
fn trip_text(spent: &BudgetSpent) -> String {
    match spent.trip {
        Some(t) => t.to_string(),
        None => "budget exhausted".to_string(),
    }
}

/// Render a (possibly huge) degraded model set for an error message:
/// the full set when small, a count otherwise.
fn models_text(sig: &Sig, models: &ModelSet) -> String {
    const SHOW: usize = 16;
    if models.len() <= SHOW {
        models.display(sig).to_string()
    } else {
        format!("{} model(s)", models.len())
    }
}

/// Turn a degraded model-set answer into the budget error carrying the
/// partial result, or format the trailing `budget:` line for exact ones.
fn budget_verdict(
    sig: &Sig,
    models: &ModelSet,
    quality: Quality,
    spent: &BudgetSpent,
) -> Result<String, CliError> {
    match quality {
        Quality::Exact => Ok(format!(
            "budget:   exact after {} work unit(s)\n",
            spent.total()
        )),
        Quality::UpperBound => Err(CliError::budget(format!(
            "{}; upper-bound result after {} work unit(s) \
             (superset of the exact answer): {}",
            trip_text(spent),
            spent.total(),
            models_text(sig, models),
        ))),
        Quality::Interrupted => Err(CliError::budget(format!(
            "{}; interrupted with incumbent(s) after {} work unit(s) \
             (no containment guarantee): {}",
            trip_text(spent),
            spent.total(),
            models_text(sig, models),
        ))),
    }
}

/// `arbitrex change <operator> "<psi>" "<mu>"` — apply a binary operator
/// and show the result as models and as a formula. Under `budget` (when
/// budget flags were given) only the enumeration-backed operators with
/// graceful degradation are accepted, the output ends with a `budget:`
/// verdict line, and a tripped budget reports the partial result as an
/// [`ErrorKind::Budget`] error.
pub fn cmd_change(
    op_name: &str,
    psi_text: &str,
    mu_text: &str,
    budget: Option<&Budget>,
) -> Result<String, CliError> {
    let op = operator(op_name).ok_or_else(|| unknown_operator(op_name))?;
    let budgeted = match budget {
        None => None,
        Some(b) => {
            let op = budgeted_operator(op_name).ok_or_else(|| {
                CliError::usage(format!(
                    "operator `{op_name}` has no budgeted variant (budgeted operators: {})",
                    budgeted_operator_names().join(", ")
                ))
            })?;
            Some((op, b))
        }
    };
    let (sig, psi, mu) = parse_enumerable(psi_text, mu_text)?;
    let n = sig.width();
    let psi_m = ModelSet::of_formula(&psi, n);
    let mu_m = ModelSet::of_formula(&mu, n);
    let (result, verdict) = match budgeted {
        None => (op.apply(&psi_m, &mu_m), String::new()),
        Some((op, b)) => {
            let out = op.apply_with_budget(&psi_m, &mu_m, b);
            let verdict = budget_verdict(&sig, &out.models, out.quality, &out.spent)?;
            (out.models, verdict)
        }
    };
    Ok(format!(
        "operator: {}\nψ models: {}\nμ models: {}\nresult:   {}\nformula:  {}\n{}",
        op.name(),
        psi_m.display(&sig),
        mu_m.display(&sig),
        result.display(&sig),
        arbitrex_logic::minimal_dnf(&result).display(&sig),
        verdict,
    ))
}

/// Cap on enumerated models for the CLI's SAT-backed change command.
const SAT_MODEL_LIMIT: usize = 1 << 16;

/// `arbitrex change ... --backend sat` — the CDCL-backed distance
/// minimization for `dalal` and `odist`, honoring the same budget flags
/// (this is the path where `--max-conflicts` bites). It takes signatures
/// past the enumeration limit, up to the 64 variables an interpretation
/// holds.
pub fn cmd_change_sat(
    op_name: &str,
    psi_text: &str,
    mu_text: &str,
    budget: &Budget,
) -> Result<String, CliError> {
    let (sig, psi, mu) = parse_both(psi_text, mu_text)?;
    let n = sig.width();
    let over_limit = || {
        CliError::limit(format!(
            "SAT backend exceeded its model limit of {SAT_MODEL_LIMIT}"
        ))
    };
    let op = operator(op_name).ok_or_else(|| unknown_operator(op_name))?;
    let out = if op.name() == DalalRevision.name() {
        dalal_revision_sat_budgeted(&psi, &mu, n, SAT_MODEL_LIMIT, budget)
    } else if op.name() == OdistFitting.name() {
        let psi_m = models_via_sat(&psi, n, SAT_MODEL_LIMIT, budget).ok_or_else(over_limit)?;
        if !psi_m.is_exact() {
            return Err(CliError::budget(format!(
                "{}; interrupted enumerating ψ's models after {} work unit(s) (no result)",
                trip_text(&psi_m.spent),
                psi_m.spent.total(),
            )));
        }
        odist_fitting_sat_budgeted(psi_m.models.as_slice(), &mu, n, SAT_MODEL_LIMIT, budget)
    } else {
        return err(format!(
            "operator `{op_name}` has no SAT backend (SAT operators: dalal, odist)"
        ));
    };
    let out = out.ok_or_else(over_limit)?;
    let verdict = budget_verdict(&sig, &out.models, out.quality, &out.spent)?;
    let distance = match out.distance {
        Some(d) => d.to_string(),
        None => "-".to_string(),
    };
    Ok(format!(
        "operator: {op_name} (sat)\ndistance: {distance}\nresult:   {}\nformula:  {}\n{}",
        out.models.display(&sig),
        arbitrex_logic::minimal_dnf(&out.models).display(&sig),
        verdict,
    ))
}

/// `arbitrex arbitrate "<psi>" "<phi>"` — the symmetric consensus. Under
/// `budget` (when budget flags were given) the output ends with a
/// `budget:` verdict line, and a tripped budget reports the partial
/// consensus as an [`ErrorKind::Budget`] error.
pub fn cmd_arbitrate(
    psi_text: &str,
    phi_text: &str,
    budget: Option<&Budget>,
) -> Result<String, CliError> {
    let (sig, psi, phi) = parse_enumerable(psi_text, phi_text)?;
    let n = sig.width();
    let psi_m = ModelSet::of_formula(&psi, n);
    let phi_m = ModelSet::of_formula(&phi, n);
    let unlimited = Budget::unlimited();
    let out = try_arbitrate_with_budget(&psi_m, &phi_m, budget.unwrap_or(&unlimited))
        .map_err(limit_err)?;
    let verdict = match budget {
        Some(_) => budget_verdict(&sig, &out.models, out.quality, &out.spent)?,
        None => String::new(),
    };
    Ok(format!(
        "ψ Δ φ models: {}\nformula:      {}\n{}",
        out.models.display(&sig),
        arbitrex_logic::minimal_dnf(&out.models).display(&sig),
        verdict,
    ))
}

/// `arbitrex models "<formula>"` — enumerate and count models.
pub fn cmd_models(text: &str) -> Result<String, CliError> {
    let mut sig = Sig::new();
    let f = parse_text(&mut sig, text, "")?;
    if sig.is_empty() {
        sig.var("p");
    }
    check_width(sig.width())?;
    let n = sig.width();
    let models = ModelSet::of_formula(&f, n);
    Ok(format!(
        "{} model(s) over {} variable(s): {}\n",
        models.len(),
        n,
        models.display(&sig)
    ))
}

/// Parse a `formula[:weight]` voice specification.
pub fn parse_voice(spec: &str) -> Result<(String, u64), CliError> {
    match spec.rsplit_once(':') {
        Some((f, w)) => match w.parse::<u64>() {
            Ok(weight) if weight >= 1 => Ok((f.to_string(), weight)),
            _ => err(format!(
                "invalid weight in voice `{spec}` (need a positive integer)"
            )),
        },
        None => Ok((spec.to_string(), 1)),
    }
}

/// `arbitrex merge [--strategy s] [--query q] voice...` where each voice
/// is `formula[:weight]`. With a budget, only the `weighted` strategy is
/// accepted (the others have no budgeted variant).
pub fn cmd_merge(
    strategy: &str,
    query: Option<&str>,
    voices: &[String],
    budget: Option<&Budget>,
) -> Result<String, CliError> {
    if voices.is_empty() {
        return err("merge needs at least one voice (`formula[:weight]`)");
    }
    let mut sig = Sig::new();
    let parsed: Vec<(Formula, u64, String)> = voices
        .iter()
        .map(|spec| {
            let (text, weight) = parse_voice(spec)?;
            let f = parse_text(&mut sig, &text, &format!("in voice `{spec}`: "))?;
            Ok((f, weight, text))
        })
        .collect::<Result<_, CliError>>()?;
    let query_f = query
        .map(|q| parse_text(&mut sig, q, "in query: "))
        .transpose()?;
    if sig.is_empty() {
        sig.var("p");
    }
    check_width(sig.width())?;
    let n = sig.width();
    let sources: Vec<Source> = parsed
        .iter()
        .enumerate()
        .map(|(k, (f, w, text))| {
            let models = ModelSet::of_formula(f, n);
            if models.is_empty() {
                return Err(CliError::new(
                    ErrorKind::Generic,
                    format!("voice `{text}` is unsatisfiable"),
                ));
            }
            Ok(Source::weighted(format!("voice{k}"), models, *w))
        })
        .collect::<Result<_, CliError>>()?;
    let mut budget_line = None;
    let outcome = match (strategy, budget) {
        ("egalitarian" | "max", None) => merge_egalitarian(&sources, None),
        ("majority" | "sum", None) => merge_majority(&sources, None),
        ("weighted" | "arbitration", None) => merge_weighted_arbitration(&sources),
        ("weighted" | "arbitration", Some(b)) => {
            let out = merge_weighted_arbitration_with_budget(&sources, b);
            if !out.quality.is_exact() {
                // Surfaces the degraded consensus as the budget error.
                budget_verdict(&sig, &out.outcome.consensus, out.quality, &out.spent)?;
            }
            budget_line = Some(format!(
                "budget: exact after {} work unit(s)\n",
                out.spent.total()
            ));
            out.outcome
        }
        ("egalitarian" | "max" | "majority" | "sum", Some(_)) => {
            return err(format!(
                "strategy `{strategy}` has no budgeted variant (use --strategy weighted)"
            ))
        }
        (other, _) => {
            return err(format!(
                "unknown strategy `{other}` (expected egalitarian, majority, or weighted)"
            ))
        }
    };
    let mut out = format!(
        "strategy: {}\nconsensus: {}\n",
        outcome.strategy,
        outcome.consensus.display(&sig)
    );
    if let Some(q) = query_f {
        let answer = ask(&outcome.consensus, &q);
        out.push_str(&format!("query {}: {:?}\n", q.display(&sig), answer));
    }
    if let Some(line) = budget_line {
        out.push_str(&line);
    }
    Ok(out)
}

/// `arbitrex audit [operator...]` — the postulate satisfaction matrix,
/// exhaustive over the 2-variable universe.
pub fn cmd_audit(names: &[String]) -> Result<String, CliError> {
    use arbitrex_core::postulates::harness::satisfaction_matrix;
    use arbitrex_core::postulates::PostulateId;
    let selected: Vec<Box<dyn ChangeOperator>> = if names.is_empty() {
        OPERATOR_NAMES.iter().filter_map(|n| operator(n)).collect()
    } else {
        names
            .iter()
            .map(|n| operator(n).ok_or_else(|| CliError::usage(format!("unknown operator `{n}`"))))
            .collect::<Result<_, _>>()?
    };
    let refs: Vec<&dyn ChangeOperator> = selected.iter().map(|b| b.as_ref()).collect();
    let ids = PostulateId::all();
    let rows = satisfaction_matrix(&refs, &ids);
    let mut table = arbitrex_merge::Table::new(
        std::iter::once("operator".to_string()).chain(ids.iter().map(|p| p.name().to_string())),
    );
    for row in &rows {
        table.row(
            std::iter::once(row.operator.clone())
                .chain(ids.iter().map(|&id| match row.passed(id) {
                    Some(true) => "+".to_string(),
                    _ => "-".to_string(),
                }))
                .collect::<Vec<_>>(),
        );
    }
    Ok(table.render())
}

/// `arbitrex iterate <operator> "<psi>" "<mu>"` — iterate `ψ ← op(ψ, μ)`
/// and report the trajectory and its period.
pub fn cmd_iterate(op_name: &str, psi_text: &str, mu_text: &str) -> Result<String, CliError> {
    use arbitrex_core::iterated::iterate_fixed_input;
    let op = operator(op_name)
        .ok_or_else(|| CliError::usage(format!("unknown operator `{op_name}`")))?;
    let (sig, psi, mu) = parse_enumerable(psi_text, mu_text)?;
    let n = sig.width();
    let psi_m = ModelSet::of_formula(&psi, n);
    let mu_m = ModelSet::of_formula(&mu, n);
    let out = iterate_fixed_input(op.as_ref(), &psi_m, &mu_m, 64);
    let mut text = String::new();
    for (step, state) in out.trajectory.iter().enumerate() {
        text.push_str(&format!("step {step}: {}\n", state.display(&sig)));
    }
    match out.period() {
        Some(1) => text.push_str("reached a fixpoint\n"),
        Some(p) => text.push_str(&format!("entered a cycle of period {p}\n")),
        None => text.push_str("no cycle within 64 steps (unexpected on a finite universe)\n"),
    }
    Ok(text)
}

/// Parse `arbitrex serve` flags into a [`arbitrex_server::ServerConfig`]. Split from
/// [`cmd_serve`] so the flag surface is unit-testable without binding a
/// socket.
pub fn parse_serve_config(args: &[String]) -> Result<arbitrex_server::ServerConfig, CliError> {
    let mut config = arbitrex_server::ServerConfig::default();
    let mut faults = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = flag_value(&mut it, "--addr")?.clone(),
            "--threads" => {
                config.threads = flag_u64(&mut it, "--threads")? as usize;
                if config.threads == 0 {
                    return err("--threads must be at least 1");
                }
            }
            "--queue-depth" => {
                config.queue_depth = flag_u64(&mut it, "--queue-depth")? as usize;
                if config.queue_depth == 0 {
                    return err("--queue-depth must be at least 1");
                }
            }
            "--timeout-ms" => config.timeout_ms = flag_u64(&mut it, "--timeout-ms")?,
            "--max-body-bytes" => {
                config.max_body_bytes = flag_u64(&mut it, "--max-body-bytes")? as usize;
                if config.max_body_bytes == 0 {
                    return err("--max-body-bytes must be at least 1");
                }
            }
            "--state-dir" => {
                config.state_dir = Some(flag_value(&mut it, "--state-dir")?.into());
            }
            "--snapshot-every" => {
                config.snapshot_every = flag_u64(&mut it, "--snapshot-every")?;
            }
            "--recover" => {
                let mode = flag_value(&mut it, "--recover")?;
                config.recover =
                    arbitrex_server::recovery::RecoverMode::parse(mode).ok_or_else(|| {
                        CliError::usage(format!(
                            "--recover expects `strict` or `salvage`, got `{mode}`"
                        ))
                    })?;
            }
            "--fault" => faults.push(parse_fault(
                flag_value(&mut it, "--fault")?,
                SERVE_FAULTS,
                "by `serve`",
            )?),
            "--keep-alive-timeout-ms" => {
                config.keep_alive_timeout_ms = flag_u64(&mut it, "--keep-alive-timeout-ms")?;
            }
            "--flush-interval-us" => {
                config.flush_interval_us = flag_u64(&mut it, "--flush-interval-us")?;
            }
            "--replication-epoch" => {
                let epoch = flag_u64(&mut it, "--replication-epoch")?;
                if epoch == 0 {
                    return err("--replication-epoch must be at least 1");
                }
                config.replication_epoch = Some(epoch);
            }
            "--shard-ring" => {
                config.shard_ring = flag_value(&mut it, "--shard-ring")?.clone();
            }
            "--shard-vnodes" => {
                let v = flag_u64(&mut it, "--shard-vnodes")?;
                if v == 0 || v > u32::MAX as u64 {
                    return err("--shard-vnodes must be between 1 and 2^32-1");
                }
                config.shard_vnodes = v as u32;
            }
            "--cluster-peers" => {
                config.cluster_peers = flag_value(&mut it, "--cluster-peers")?
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--probe-interval-ms" => {
                config.probe_interval_ms = flag_u64(&mut it, "--probe-interval-ms")?;
            }
            "--suspect-after" => {
                let v = flag_u64(&mut it, "--suspect-after")?;
                if v == 0 || v > u32::MAX as u64 {
                    return err("--suspect-after must be between 1 and 2^32-1");
                }
                config.suspect_after = v as u32;
            }
            other => {
                return err(format!(
                    "unknown serve flag `{other}` (expected --addr, --threads, \
                     --queue-depth, --timeout-ms, --max-body-bytes, \
                     --keep-alive-timeout-ms, --state-dir, --snapshot-every, \
                     --recover, --fault, --flush-interval-us, \
                     --replication-epoch, \
                     --shard-ring, --shard-vnodes, \
                     --cluster-peers, --probe-interval-ms, --suspect-after)"
                ))
            }
        }
    }
    // Without a state directory there is no WAL or snapshot writer to
    // charge the durability sites.
    if config.state_dir.is_none() {
        if let Some(plan) = faults
            .iter()
            .find(|p| p.site.family() == FaultFamily::Durability)
        {
            return Err(unaccepted_fault(
                plan.site,
                &[FaultFamily::Net, FaultFamily::Shard],
                "by `serve` without --state-dir",
            ));
        }
    }
    config.faults = Faults::new(faults);
    Ok(config)
}

/// `arbitrex serve [--addr a] [--threads n] [--queue-depth n]
/// [--timeout-ms n]` — run the arbitration service in
/// the foreground until SIGTERM/SIGINT.
///
/// Prints the bound address eagerly (before blocking) so scripts can
/// discover the port when `--addr` ends in `:0`.
pub fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let config = parse_serve_config(args)?;
    let server = arbitrex_server::Server::bind(config.clone()).map_err(|e| {
        CliError::new(
            ErrorKind::Generic,
            format!("cannot bind {}: {e}", config.addr),
        )
    })?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::new(ErrorKind::Generic, e.to_string()))?;
    arbitrex_server::install_signal_shutdown();
    {
        use std::io::Write as _;
        let mut out = std::io::stdout();
        if let Some(report) = &server.state().recovery {
            let _ = writeln!(
                out,
                "arbitrex-server recovered {} KBs (snapshot={}, wal-records={}, \
                 torn-tail-truncated={}, salvaged-bytes-dropped={}, max-seq={}, \
                 epoch={}, rseq={})",
                report.kbs,
                report.snapshot_loaded,
                report.wal_records_replayed,
                report.torn_tail_truncated,
                report.salvaged_bytes_dropped,
                report.max_seq,
                report.max_epoch,
                report.max_rseq
            );
            if let (Some(offset), Some(frame)) =
                (report.truncated_offset, report.truncated_frame_index)
            {
                let _ = writeln!(
                    out,
                    "arbitrex-server truncated WAL tail at byte offset {offset} \
                     (frame index {frame}; {frame} verified frames precede the cut)"
                );
            }
        }
        let _ = writeln!(
            out,
            "arbitrex-server ring member {} (vnodes={}, peers={})",
            server.state().shards.self_addr(),
            config.shard_vnodes,
            config.cluster_peers.len()
        );
        if config.probe_interval_ms > 0 && config.state_dir.is_some() {
            let _ = writeln!(
                out,
                "arbitrex-server failover detector probing every {}ms \
                 (suspect after {} failures)",
                config.probe_interval_ms, config.suspect_after
            );
        }
        let _ = writeln!(
            out,
            "arbitrex-server listening on {addr} \
             (threads={}, queue-depth={}, timeout-ms={})",
            config.threads, config.queue_depth, config.timeout_ms
        );
        let _ = out.flush();
    }
    server
        .run()
        .map_err(|e| CliError::new(ErrorKind::Generic, format!("server error: {e}")))?;
    Ok("server stopped\n".to_string())
}

/// Top-level help text.
pub fn help() -> String {
    format!(
        "arbitrex — theory change by arbitration (Revesz, PODS 1993)\n\
         \n\
         usage:\n\
         \x20 arbitrex change <operator> \"<psi>\" \"<mu>\"   apply a change operator\n\
         \x20 arbitrex arbitrate \"<psi>\" \"<phi>\"          symmetric consensus ψ Δ φ\n\
         \x20 arbitrex models \"<formula>\"                 enumerate models\n\
         \x20 arbitrex merge [--strategy s] [--query q] <voice>...\n\
         \x20\x20\x20\x20 merge voices (`formula[:weight]`); strategies: egalitarian,\n\
         \x20\x20\x20\x20 majority, weighted\n\
         \x20 arbitrex audit [operator...]                postulate matrix (R/U/A)\n\
         \x20 arbitrex iterate <operator> \"<psi>\" \"<mu>\"  long-run dynamics\n\
         \x20 arbitrex serve [--addr a] [--threads n] [--queue-depth n]\n\
         \x20\x20\x20\x20 [--timeout-ms n] [--max-body-bytes n]\n\
         \x20\x20\x20\x20 [--keep-alive-timeout-ms n] [--state-dir d] [--snapshot-every n]\n\
         \x20\x20\x20\x20 [--recover strict|salvage] [--flush-interval-us n]\n\
         \x20\x20\x20\x20 [--replication-epoch n]\n\
         \x20\x20\x20\x20 [--shard-ring addr|auto] [--shard-vnodes n]\n\
         \x20\x20\x20\x20 [--cluster-peers a,b] [--probe-interval-ms n] [--suspect-after k]\n\
         \x20\x20\x20\x20 run the HTTP arbitration service (see README \"Serving\");\n\
         \x20\x20\x20\x20 --state-dir makes KBs durable (WAL + snapshots, README\n\
         \x20\x20\x20\x20 \"Durability\"); commits batch fsyncs (group commit);\n\
         \x20\x20\x20\x20 every node is a consistent-hash ring member advertising\n\
         \x20\x20\x20\x20 --shard-ring (default auto: the bound address; README\n\
         \x20\x20\x20\x20 \"Sharding\"); peers are chain specs `head~replica@epoch`, and a\n\
         \x20\x20\x20\x20 node listed behind a head (there, or by POST /v1/cluster/enlist)\n\
         \x20\x20\x20\x20 is its read-only replica (README \"Failover\"): it probes its head\n\
         \x20\x20\x20\x20 every --probe-interval-ms, takes over via quorum after\n\
         \x20\x20\x20\x20 --suspect-after failed probes, and POST /v1/replication/promote\n\
         \x20\x20\x20\x20 rotates the chain by hand; serve\n\
         \x20\x20\x20\x20 --fault <site>:<k> (repeatable, testing) takes wal_write/\n\
         \x20\x20\x20\x20 wal_fsync/snapshot_rename (with --state-dir), net_drop/\n\
         \x20\x20\x20\x20 net_torn/net_dup/net_delay/net_partition and\n\
         \x20\x20\x20\x20 shard_handoff_torn/shard_ring_stale/shard_proxy_drop\n\
         \n\
         flags:\n\
         \x20 --stats        append operator telemetry counters (text)\n\
         \x20 --stats-json   append operator telemetry counters (JSON)\n\
         \x20\x20\x20\x20 counters read 0 when built without the `telemetry` feature;\n\
         \x20\x20\x20\x20 see OBSERVABILITY.md for every counter's definition\n\
         \x20 --backend sat  CDCL distance minimization for `change`\n\
         \x20\x20\x20\x20 (operators: dalal, odist; up to 64 variables)\n\
         \n\
         budget flags (change, arbitrate, merge --strategy weighted):\n\
         \x20 --timeout-ms <n>      wall-clock deadline\n\
         \x20 --max-steps <n>       scan + branch-and-bound work limit\n\
         \x20 --max-conflicts <n>   SAT conflict limit (--backend sat)\n\
         \x20 --max-models <n>      enumerated-model limit (--backend sat)\n\
         \x20 --fault <site>:<k>    trip at the k-th charge (repeatable, testing);\n\
         \x20\x20\x20\x20 sites: scan, node, conflict, model, ladder_step\n\
         \x20 a tripped budget prints the degraded result on stderr and\n\
         \x20 exits with code 5 (usage 2, parse 3, limits 4, other 1)\n\
         \n\
         operators: {}\n\
         formulas:  atoms, ! & | ^ -> <->, true/false, parentheses\n",
        OPERATOR_NAMES.join(", ")
    )
}

/// The fault families the budgeted operator commands charge.
const OPERATOR_FAULTS: &[FaultFamily] = &[FaultFamily::Compute];
/// The fault families `serve` charges (durability ones need a state
/// directory).
const SERVE_FAULTS: &[FaultFamily] = &[
    FaultFamily::Durability,
    FaultFamily::Net,
    FaultFamily::Shard,
];

/// Parse a `--fault site:k` specification — the one parser behind both
/// `arbitrex --fault` and `serve --fault` — accepting only sites in
/// `families`. A site the command never charges is a usage error (exit
/// code 2) naming `context` and listing the sites it does accept.
pub fn parse_fault(
    spec: &str,
    families: &[FaultFamily],
    context: &str,
) -> Result<FaultPlan, CliError> {
    let plan: FaultPlan = spec
        .parse()
        .map_err(|e| CliError::usage(format!("--fault: {e}")))?;
    if !families.contains(&plan.site.family()) {
        return Err(unaccepted_fault(plan.site, families, context));
    }
    Ok(plan)
}

fn unaccepted_fault(site: FaultSite, families: &[FaultFamily], context: &str) -> CliError {
    let accepted: Vec<&str> = FaultSite::ALL
        .into_iter()
        .filter(|s| families.contains(&s.family()))
        .map(FaultSite::name)
        .collect();
    CliError::usage(format!(
        "--fault site `{}` is never charged {context} (accepted: {})",
        site.name(),
        accepted.join(", ")
    ))
}

/// Global flags extracted by [`run`] before command dispatch.
#[derive(Debug, Default)]
struct ExecCtx {
    budget: Option<Budget>,
    backend_sat: bool,
}

fn flag_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
) -> Result<&'a String, CliError> {
    it.next()
        .ok_or_else(|| CliError::usage(format!("{flag} needs a value")))
}

fn flag_u64(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, CliError> {
    let v = flag_value(it, flag)?;
    v.parse::<u64>()
        .map_err(|_| CliError::usage(format!("{flag} needs an integer, got `{v}`")))
}

/// Dispatch a full argument vector (without the program name), handling
/// the global flags: `--stats` / `--stats-json` append a telemetry
/// profile of exactly that command's work; the budget flags route the
/// command through its `try_*_with_budget` variant.
pub fn run(args: &[String]) -> Result<String, CliError> {
    // `serve` owns its whole argument list: its `--timeout-ms` is the
    // server's default request deadline, not the global budget flag.
    if args.first().map(String::as_str) == Some("serve") {
        return cmd_serve(&args[1..]);
    }
    let mut stats_text = false;
    let mut stats_json = false;
    let mut timeout_ms: Option<u64> = None;
    let mut max_steps: Option<u64> = None;
    let mut max_conflicts: Option<u64> = None;
    let mut max_models: Option<u64> = None;
    let mut faults: Vec<FaultPlan> = Vec::new();
    let mut backend_sat = false;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stats" => stats_text = true,
            "--stats-json" => stats_json = true,
            "--backend" => {
                backend_sat = match flag_value(&mut it, "--backend")?.as_str() {
                    "sat" => true,
                    "enum" | "enumeration" => false,
                    other => {
                        return err(format!("unknown backend `{other}` (expected enum or sat)"))
                    }
                }
            }
            "--timeout-ms" => timeout_ms = Some(flag_u64(&mut it, "--timeout-ms")?),
            "--max-steps" => max_steps = Some(flag_u64(&mut it, "--max-steps")?),
            "--max-conflicts" => max_conflicts = Some(flag_u64(&mut it, "--max-conflicts")?),
            "--max-models" => max_models = Some(flag_u64(&mut it, "--max-models")?),
            "--fault" => faults.push(parse_fault(
                flag_value(&mut it, "--fault")?,
                OPERATOR_FAULTS,
                "by operator commands",
            )?),
            _ => rest.push(arg.clone()),
        }
    }
    let mut budget = None;
    if timeout_ms.is_some()
        || max_steps.is_some()
        || max_conflicts.is_some()
        || max_models.is_some()
        || !faults.is_empty()
    {
        let mut b = Budget::unlimited();
        if let Some(ms) = timeout_ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = max_steps {
            b = b.with_step_limit(n);
        }
        if let Some(n) = max_conflicts {
            b = b.with_conflict_limit(n);
        }
        if let Some(n) = max_models {
            b = b.with_candidate_limit(n);
        }
        for plan in faults {
            b = b.with_fault(plan);
        }
        budget = Some(b);
    }
    let ctx = ExecCtx {
        budget,
        backend_sat,
    };
    if !(stats_text || stats_json) {
        return dispatch(&rest, &ctx);
    }
    let (result, snapshot) = arbitrex_core::telemetry::capture(|| dispatch(&rest, &ctx));
    result.map(|mut out| {
        if stats_text {
            out.push_str(&snapshot.render_text());
        }
        if stats_json {
            out.push_str(&snapshot.to_json());
            out.push('\n');
        }
        out
    })
}

/// The flagless command dispatcher behind [`run`].
fn dispatch(args: &[String], ctx: &ExecCtx) -> Result<String, CliError> {
    let command = args.first().map(String::as_str);
    if ctx.backend_sat && command != Some("change") {
        return err("--backend sat only applies to the `change` command");
    }
    if ctx.budget.is_some() && matches!(command, Some("models" | "audit" | "iterate")) {
        return err(format!(
            "budget flags are not supported for `{}` (budgeted commands: \
             change, arbitrate, merge --strategy weighted)",
            command.unwrap_or_default()
        ));
    }
    match command {
        None | Some("help") | Some("--help") | Some("-h") => Ok(help()),
        Some("change") => match args {
            [_, op, psi, mu] => {
                if ctx.backend_sat {
                    let unlimited = Budget::unlimited();
                    cmd_change_sat(op, psi, mu, ctx.budget.as_ref().unwrap_or(&unlimited))
                } else {
                    cmd_change(op, psi, mu, ctx.budget.as_ref())
                }
            }
            _ => err("usage: arbitrex change <operator> \"<psi>\" \"<mu>\""),
        },
        Some("arbitrate") => match args {
            [_, psi, phi] => cmd_arbitrate(psi, phi, ctx.budget.as_ref()),
            _ => err("usage: arbitrex arbitrate \"<psi>\" \"<phi>\""),
        },
        Some("models") => match args {
            [_, f] => cmd_models(f),
            _ => err("usage: arbitrex models \"<formula>\""),
        },
        Some("audit") => cmd_audit(&args[1..]),
        Some("iterate") => match args {
            [_, op, psi, mu] => cmd_iterate(op, psi, mu),
            _ => err("usage: arbitrex iterate <operator> \"<psi>\" \"<mu>\""),
        },
        Some("merge") => {
            let mut strategy = "weighted".to_string();
            let mut query: Option<String> = None;
            let mut voices: Vec<String> = Vec::new();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--strategy" => strategy = flag_value(&mut it, "--strategy")?.clone(),
                    "--query" => query = Some(flag_value(&mut it, "--query")?.clone()),
                    other => voices.push(other.to_string()),
                }
            }
            cmd_merge(&strategy, query.as_deref(), &voices, ctx.budget.as_ref())
        }
        Some(other) => err(format!("unknown command `{other}` — try `arbitrex help`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_core::TripReason;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_flags_parse_into_config() {
        let cfg = parse_serve_config(&sv(&[
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "8",
            "--queue-depth",
            "3",
            "--timeout-ms",
            "250",
        ]))
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.queue_depth, 3);
        assert_eq!(cfg.timeout_ms, 250);
        // Defaults hold when flags are omitted.
        let d = parse_serve_config(&[]).unwrap();
        assert_eq!(d.threads, arbitrex_server::ServerConfig::default().threads);
        assert_eq!(d.state_dir, None);
    }

    #[test]
    fn serve_durability_flags_parse_into_config() {
        let cfg = parse_serve_config(&sv(&[
            "--state-dir",
            "/tmp/arbx-state",
            "--snapshot-every",
            "17",
            "--recover",
            "salvage",
            "--max-body-bytes",
            "4096",
            "--fault",
            "wal_fsync:3",
        ]))
        .unwrap();
        assert_eq!(
            cfg.state_dir.as_deref(),
            Some(std::path::Path::new("/tmp/arbx-state"))
        );
        assert_eq!(cfg.snapshot_every, 17);
        assert_eq!(cfg.recover, arbitrex_server::recovery::RecoverMode::Salvage);
        assert_eq!(cfg.max_body_bytes, 4096);
        assert_eq!(cfg.faults.plans(), [FaultPlan::new(FaultSite::WalFsync, 3)]);
    }

    #[test]
    fn serve_event_loop_and_group_commit_flags_parse_into_config() {
        let cfg = parse_serve_config(&sv(&[
            "--keep-alive-timeout-ms",
            "1500",
            "--flush-interval-us",
            "200",
        ]))
        .unwrap();
        assert_eq!(cfg.keep_alive_timeout_ms, 1500);
        assert_eq!(cfg.flush_interval_us, 200);
        // Defaults: no linger, 5s keep-alive reaping.
        let d = parse_serve_config(&[]).unwrap();
        assert_eq!(d.flush_interval_us, 0);
        assert_eq!(d.keep_alive_timeout_ms, 5_000);
        // `--keep-alive-timeout-ms 0` disables reaping rather than erroring.
        let z = parse_serve_config(&sv(&["--keep-alive-timeout-ms", "0"])).unwrap();
        assert_eq!(z.keep_alive_timeout_ms, 0);
    }

    #[test]
    fn serve_rejects_the_retired_group_commit_flag() {
        // Group commit is the only commit path; the flag that turned it
        // off is gone.
        for mode in ["on", "off"] {
            let e = cmd_serve(&sv(&["--group-commit", mode])).unwrap_err();
            assert_eq!(e.kind.exit_code(), 2);
            assert!(
                e.message.contains("unknown serve flag `--group-commit`"),
                "{e}"
            );
        }
    }

    #[test]
    fn serve_rejects_the_retired_cache_entries_flag() {
        // Every query goes to its operator; the result cache and its
        // capacity flag are gone.
        for value in ["0", "256"] {
            let e = cmd_serve(&sv(&["--cache-entries", value])).unwrap_err();
            assert_eq!(e.kind.exit_code(), 2);
            assert!(
                e.message.contains("unknown serve flag `--cache-entries`"),
                "{e}"
            );
        }
    }

    #[test]
    fn serve_rejects_the_retired_bdd_hotness_flag() {
        let e = cmd_serve(&sv(&["--bdd-hotness", "4"])).unwrap_err();
        assert_eq!(e.kind.exit_code(), 2);
        assert!(
            e.message.contains("unknown serve flag `--bdd-hotness`"),
            "{e}"
        );
    }

    #[test]
    fn serve_usage_errors_exit_2() {
        for bad in [
            sv(&["--threads"]),              // missing value
            sv(&["--threads", "zero"]),      // non-integer
            sv(&["--threads", "0"]),         // out of range
            sv(&["--queue-depth", "0"]),     // out of range
            sv(&["--port", "80"]),           // unknown flag
            sv(&["--recover", "ignore"]),    // unknown recovery mode
            sv(&["--max-body-bytes", "0"]),  // out of range
            sv(&["--fault", "wal_write"]),   // missing count
            sv(&["--fault", "scan:5"]),      // compute site: never charged
            sv(&["--fault", "node:1"]),      // compute site: never charged
            sv(&["--fault", "wal_write:1"]), // durability site, no --state-dir
            sv(&["--flush-interval-us"]),    // missing value
        ] {
            let e = cmd_serve(&bad).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Usage, "{bad:?}: {e}");
            assert_eq!(e.kind.exit_code(), 2);
        }
    }

    #[test]
    fn change_command_runs_example_31() {
        let out = cmd_change(
            "odist",
            "(S & !D & !Q) | (!S & D & !Q) | (S & D & Q)",
            "(!S & D & !Q) | (S & D & !Q)",
            None,
        )
        .unwrap();
        assert!(out.contains("{{S, D}}"), "{out}");
    }

    #[test]
    fn change_rejects_unknown_operator() {
        let e = cmd_change("nonsense", "A", "B", None).unwrap_err();
        assert!(e.message.contains("unknown operator"));
        assert_eq!(e.kind, ErrorKind::Usage);
    }

    #[test]
    fn audit_with_no_names_covers_every_published_operator() {
        // Pins the filter_map in cmd_audit: a published name that failed
        // to resolve would drop its row.
        let out = cmd_audit(&[]).unwrap();
        for name in OPERATOR_NAMES {
            let resolved = operator(name).unwrap();
            assert!(out.contains(resolved.name()), "missing row for {name}");
        }
    }

    #[test]
    fn error_kinds_map_to_distinct_exit_codes() {
        let kinds = [
            ErrorKind::Generic,
            ErrorKind::Usage,
            ErrorKind::Parse,
            ErrorKind::Limit,
            ErrorKind::Budget,
        ];
        let codes: Vec<i32> = kinds.iter().map(|k| k.exit_code()).collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5]);
        for k in kinds {
            assert_ne!(k.exit_code(), 0, "{} must be nonzero", k.name());
        }
    }

    #[test]
    fn parse_errors_carry_the_parse_kind() {
        assert_eq!(cmd_models("A &&& B").unwrap_err().kind, ErrorKind::Parse);
        assert_eq!(
            cmd_arbitrate("(A", "B", None).unwrap_err().kind,
            ErrorKind::Parse
        );
        assert_eq!(
            cmd_merge("weighted", None, &sv(&["A |"]), None)
                .unwrap_err()
                .kind,
            ErrorKind::Parse
        );
    }

    #[test]
    fn usage_errors_carry_the_usage_kind() {
        assert_eq!(
            run(&sv(&["frobnicate"])).unwrap_err().kind,
            ErrorKind::Usage
        );
        assert_eq!(
            run(&sv(&["change", "dalal"])).unwrap_err().kind,
            ErrorKind::Usage
        );
        assert_eq!(
            run(&sv(&["--backend", "quantum", "models", "A"]))
                .unwrap_err()
                .kind,
            ErrorKind::Usage
        );
        assert_eq!(
            run(&sv(&["--timeout-ms", "soon", "arbitrate", "A", "B"]))
                .unwrap_err()
                .kind,
            ErrorKind::Usage
        );
    }

    #[test]
    fn wide_signatures_carry_the_limit_kind() {
        let atoms: Vec<String> = (0..40).map(|i| format!("x{i}")).collect();
        let wide = atoms.join(" | ");
        let e = cmd_models(&wide).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Limit);
        assert!(e.message.contains("enumeration limit"), "{}", e.message);
    }

    #[test]
    fn arbitrate_command_is_symmetric() {
        let a = cmd_arbitrate("A & B", "!A & !B", None).unwrap();
        let b = cmd_arbitrate("!A & !B", "A & B", None).unwrap();
        // Same consensus line (models are canonical).
        let line = |s: &str| s.lines().next().unwrap().to_string();
        assert_eq!(line(&a), line(&b));
    }

    #[test]
    fn models_command_counts() {
        let out = cmd_models("A | B").unwrap();
        assert!(out.starts_with("3 model(s) over 2 variable(s)"));
        let out = cmd_models("A & !A").unwrap();
        assert!(out.starts_with("0 model(s)"));
    }

    #[test]
    fn voice_parsing() {
        assert_eq!(parse_voice("A & B").unwrap(), ("A & B".to_string(), 1));
        assert_eq!(parse_voice("A:9").unwrap(), ("A".to_string(), 9));
        assert!(parse_voice("A:0").is_err());
        assert!(parse_voice("A:x").is_err());
    }

    #[test]
    fn merge_command_jury() {
        let out = cmd_merge(
            "weighted",
            Some("A & !B"),
            &sv(&["A & !B:9", "!A & B:2"]),
            None,
        )
        .unwrap();
        assert!(out.contains("consensus: {{A}}"), "{out}");
        assert!(out.contains("Entailed"), "{out}");
    }

    #[test]
    fn merge_rejects_unsatisfiable_voice_and_bad_strategy() {
        let e = cmd_merge("weighted", None, &sv(&["A & !A"]), None).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Generic);
        assert!(cmd_merge("nope", None, &sv(&["A"]), None).is_err());
        assert!(cmd_merge("weighted", None, &[], None).is_err());
    }

    #[test]
    fn run_dispatches_and_reports_usage() {
        assert!(run(&sv(&["help"])).unwrap().contains("usage"));
        assert!(run(&[]).unwrap().contains("usage"));
        assert!(run(&sv(&["change", "dalal"])).is_err());
        assert!(run(&sv(&["frobnicate"])).is_err());
        let out = run(&sv(&["change", "dalal", "A & B", "!A | !B"])).unwrap();
        assert!(out.contains("dalal-revision"));
    }

    #[test]
    fn audit_command_renders_matrix() {
        let out = cmd_audit(&sv(&["dalal", "winslett", "lex-odist"])).unwrap();
        assert!(out.contains("dalal-revision"));
        assert!(out.contains("A8"));
        // lex-odist passes A8; dalal does not.
        let lex_row = out.lines().find(|l| l.contains("lex-odist")).unwrap();
        assert!(lex_row.trim_end().ends_with('+'));
        let dalal_row = out.lines().find(|l| l.contains("dalal")).unwrap();
        assert!(dalal_row.trim_end().ends_with('-'));
        assert!(cmd_audit(&sv(&["nope"])).is_err());
    }

    #[test]
    fn iterate_command_reports_period() {
        // The documented oscillation.
        let out = cmd_iterate("odist", "(A & !B) | (!A & B)", "A | !A").unwrap();
        assert!(out.contains("period 2"), "{out}");
        let out = cmd_iterate("dalal", "A & B", "!A").unwrap();
        assert!(out.contains("fixpoint"), "{out}");
    }

    #[test]
    fn run_merge_with_flags() {
        let out = run(&sv(&[
            "merge",
            "--strategy",
            "majority",
            "--query",
            "A",
            "A:9",
            "!A:2",
        ]))
        .unwrap();
        assert!(out.contains("strategy: majority"));
    }

    #[test]
    fn stats_flag_appends_text_profile() {
        let out = run(&sv(&["arbitrate", "A & B", "!A & !B", "--stats"])).unwrap();
        assert!(out.contains("telemetry"), "{out}");
        assert!(out.contains("kernel"), "{out}");
    }

    #[test]
    fn stats_json_flag_appends_json_profile() {
        let out = run(&sv(&["arbitrate", "A & B", "!A & !B", "--stats-json"])).unwrap();
        assert!(out.contains("\"telemetry_enabled\""), "{out}");
        assert!(out.contains("\"candidates_scanned\""), "{out}");
        if arbitrex_core::telemetry::enabled() {
            // The arbitration above must have scanned ψ ∨ φ's models.
            assert!(!out.contains("\"candidates_scanned\": 0"), "{out}");
        }
    }

    #[test]
    fn stats_flag_position_does_not_matter() {
        let a = run(&sv(&["--stats-json", "models", "A | B"])).unwrap();
        let b = run(&sv(&["models", "A | B", "--stats-json"])).unwrap();
        assert!(a.contains("\"telemetry_enabled\""));
        assert!(b.contains("\"telemetry_enabled\""));
    }

    #[test]
    fn no_stats_flag_means_no_profile() {
        let out = run(&sv(&["models", "A"])).unwrap();
        assert!(!out.contains("telemetry_enabled"), "{out}");
    }

    #[test]
    fn parse_fault_specs() {
        let f = parse_fault("node:3", OPERATOR_FAULTS, "here").unwrap();
        assert_eq!(f.site, FaultSite::Node);
        assert_eq!(f.at, 3);
        for bad in ["node", "warp:1", "scan:0", "scan:x"] {
            let e = parse_fault(bad, OPERATOR_FAULTS, "here").unwrap_err();
            assert_eq!(e.kind, ErrorKind::Usage, "{bad}");
        }
        // Every spelling parses into the one registry.
        for site in FaultSite::ALL {
            let all = [
                FaultFamily::Compute,
                FaultFamily::Durability,
                FaultFamily::Net,
                FaultFamily::Shard,
            ];
            let plan = parse_fault(&format!("{}:2", site.name()), &all, "here").unwrap();
            assert_eq!(plan, FaultPlan::new(site, 2));
        }
        // A site the command never charges is a usage error listing the
        // sites it does accept.
        for spec in ["wal_write:1", "net_drop:1", "shard_ring_stale:2"] {
            let e = parse_fault(spec, OPERATOR_FAULTS, "here").unwrap_err();
            assert_eq!(e.kind, ErrorKind::Usage);
            assert!(e.message.contains("ladder_step"), "{}", e.message);
            assert!(!e.message.contains("net_dup"), "{}", e.message);
        }
        let e = parse_fault("scan:5", SERVE_FAULTS, "here").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.message.contains("wal_write"), "{}", e.message);
        assert!(e.message.contains("shard_proxy_drop"), "{}", e.message);
        assert!(!e.message.contains("ladder_step"), "{}", e.message);
    }

    #[test]
    fn serve_fault_specs_cover_durability_and_net_sites() {
        let config = parse_serve_config(&sv(&[
            "--state-dir",
            "/tmp/arbx-state",
            "--fault",
            "wal_fsync:2",
            "--fault",
            "net_partition:3",
            "--fault",
            "shard_handoff_torn:1",
            "--fault",
            "net_partition:9",
        ]))
        .unwrap();
        // Every repeated --fault is armed, none overwrites another.
        assert_eq!(
            config.faults.plans(),
            [
                FaultPlan::new(FaultSite::WalFsync, 2),
                FaultPlan::new(FaultSite::NetPartition, 3),
                FaultPlan::new(FaultSite::ShardHandoffTorn, 1),
                FaultPlan::new(FaultSite::NetPartition, 9),
            ]
        );
        // An unknown site is a usage error — exit code 2 — and the
        // message names every site family.
        let e = parse_serve_config(&sv(&["--fault", "net_warp:1"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert_eq!(e.kind.exit_code(), 2);
        assert!(e.message.contains("net_drop"), "{}", e.message);
        assert!(e.message.contains("wal_write"), "{}", e.message);
        assert!(e.message.contains("shard_proxy_drop"), "{}", e.message);
        // Malformed counts stay usage errors on the net path too.
        for bad in ["net_drop:0", "net_drop"] {
            let e = parse_serve_config(&sv(&["--fault", bad])).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Usage, "{bad}");
        }
        // Durability sites need a store to charge them; the error lists
        // what this server would charge.
        let e = parse_serve_config(&sv(&["--fault", "snapshot_rename:1"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.message.contains("--state-dir"), "{}", e.message);
        assert!(e.message.contains("net_partition"), "{}", e.message);
        assert!(!e.message.contains("wal_fsync"), "{}", e.message);
    }

    #[test]
    fn serve_config_parses_replication_flags() {
        let config =
            parse_serve_config(&sv(&["--replication-epoch", "4", "--fault", "net_drop:2"]))
                .unwrap();
        assert_eq!(config.replication_epoch, Some(4));
        assert_eq!(
            config.faults.plans(),
            [FaultPlan::new(FaultSite::NetDrop, 2)]
        );
        let e = parse_serve_config(&sv(&["--replication-epoch", "0"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
    }

    #[test]
    fn serve_config_parses_failover_flags_and_chain_combos() {
        let config = parse_serve_config(&sv(&[
            "--shard-ring",
            "auto",
            "--cluster-peers",
            "127.0.0.1:7001~127.0.0.1:7002,127.0.0.1:7003",
            "--probe-interval-ms",
            "100",
            "--suspect-after",
            "2",
        ]))
        .unwrap();
        assert_eq!(config.probe_interval_ms, 100);
        assert_eq!(config.suspect_after, 2);
        assert_eq!(config.shard_ring, "auto");
        assert_eq!(config.cluster_peers.len(), 2);

        let defaults = parse_serve_config(&[]).unwrap();
        assert_eq!(defaults.probe_interval_ms, 500);
        assert_eq!(defaults.suspect_after, 3);
        assert_eq!(defaults.shard_ring, "auto", "every node is a ring member");

        let e = parse_serve_config(&sv(&["--suspect-after", "0"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
    }

    #[test]
    fn generous_budget_stays_exact_and_reports_it() {
        let exact = run(&sv(&["change", "dalal", "A & B", "!A | !B"])).unwrap();
        let budgeted = run(&sv(&[
            "change",
            "dalal",
            "A & B",
            "!A | !B",
            "--max-steps",
            "100000",
        ]))
        .unwrap();
        assert!(budgeted.contains("budget:   exact"), "{budgeted}");
        // Same result line as the unbudgeted run.
        let result = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("result:"))
                .unwrap()
                .to_string()
        };
        assert_eq!(result(&exact), result(&budgeted));
    }

    #[test]
    fn fault_flag_degrades_with_budget_error() {
        // The first ranked candidate faults: every candidate lands in the
        // frontier, so the degraded answer is an upper bound.
        let e = run(&sv(&[
            "change", "dalal", "A & B", "!A | !B", "--fault", "scan:1",
        ]))
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Budget);
        assert!(e.message.contains("fault"), "{}", e.message);
        assert!(e.message.contains("upper-bound"), "{}", e.message);
    }

    #[test]
    fn arbitrate_fault_at_first_scan_degrades() {
        // A small union over few variables ranks candidates by linear
        // scan (the subcube branch-and-bound takes over only once the
        // predicted work `2^n·|Mod(ψ)|` outgrows the union's size), so
        // the scan site is the one that faults here.
        let e = run(&sv(&["arbitrate", "A & B", "!A & !B", "--fault", "scan:1"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Budget);
        assert!(e.message.contains("scan"), "{}", e.message);
    }

    #[test]
    fn every_repeated_fault_flag_is_armed() {
        // The later `node:100` never fires on this small universe; the
        // earlier `scan:1` must still be armed, not overwritten.
        let e = run(&sv(&[
            "arbitrate",
            "A & B",
            "!A & !B",
            "--fault",
            "scan:1",
            "--fault",
            "node:100",
        ]))
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Budget);
        assert!(e.message.contains("scan"), "{}", e.message);
    }

    #[test]
    fn operator_commands_reject_fault_sites_they_never_charge() {
        for spec in ["wal_write:1", "net_drop:1", "shard_proxy_drop:1"] {
            let e = run(&sv(&["arbitrate", "A", "!A", "--fault", spec])).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Usage, "{spec}");
            assert_eq!(e.kind.exit_code(), 2);
            assert!(e.message.contains("scan"), "{}", e.message);
        }
    }

    #[test]
    fn arbitrate_fault_at_first_node_degrades_on_wide_universes() {
        // 15 atoms with a 2-model union (`2^15 ≥ 8192·2²`) take the
        // universe search into branch-and-bound, where the root node
        // always charges: `node:1` is a guaranteed trip.
        let atoms: Vec<String> = (0..15).map(|i| format!("a{i}")).collect();
        let psi = atoms.join(" & ");
        let phi = format!("!({})", atoms.join(" | "));
        let e = run(&sv(&["arbitrate", &psi, &phi, "--fault", "node:1"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Budget);
        assert!(e.message.contains("node"), "{}", e.message);
    }

    #[test]
    fn budget_flags_reject_unbudgeted_operators_and_commands() {
        let e = run(&sv(&["change", "satoh", "A", "B", "--max-steps", "5"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.message.contains("no budgeted variant"), "{}", e.message);
        let e = run(&sv(&["models", "A", "--max-steps", "5"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        let e = run(&sv(&[
            "merge",
            "--strategy",
            "majority",
            "A",
            "--max-steps",
            "5",
        ]))
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
    }

    #[test]
    fn sat_backend_change_matches_enumeration() {
        let enumerated = run(&sv(&["change", "dalal", "A & B", "!A | !B"])).unwrap();
        let sat = run(&sv(&[
            "change",
            "dalal",
            "A & B",
            "!A | !B",
            "--backend",
            "sat",
        ]))
        .unwrap();
        assert!(sat.contains("distance: 1"), "{sat}");
        let result = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("result:"))
                .unwrap()
                .to_string()
        };
        assert_eq!(result(&enumerated), result(&sat));
        // And the odist operator too.
        let sat = run(&sv(&[
            "change",
            "odist",
            "A & B",
            "!A | !B",
            "--backend",
            "sat",
        ]))
        .unwrap();
        assert!(sat.contains("budget:   exact"), "{sat}");
    }

    #[test]
    fn sat_backend_takes_signatures_past_the_enumeration_limit() {
        // ψ fixes 30 variables, μ flips one: both operators move one bit.
        let atoms: Vec<String> = (0..30).map(|i| format!("V{i}")).collect();
        let psi = atoms.join(" & ");
        let result = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("result:"))
                .unwrap()
                .to_string()
        };
        let mut results = Vec::new();
        for op in ["dalal", "odist"] {
            let out = run(&sv(&["change", op, &psi, "!V0", "--backend", "sat"])).unwrap();
            assert!(out.contains("distance: 1"), "{out}");
            assert!(out.contains("budget:   exact"), "{out}");
            results.push(result(&out));
        }
        assert_eq!(results[0], results[1]);
        assert!(results[0].contains("V29") && !results[0].contains("V0,"));
        // Enumeration still refuses the width.
        let e = run(&sv(&["change", "dalal", &psi, "!V0"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Limit);
        assert!(e.message.contains("enumeration limit of 28"), "{e}");
        // Past the 64 variables an interpretation holds: a limit error,
        // not a panic, for either operator.
        let wide: Vec<String> = (0..65).map(|i| format!("V{i}")).collect();
        let wide = wide.join(" & ");
        for op in ["dalal", "odist"] {
            let e = run(&sv(&["change", op, &wide, "!V0", "--backend", "sat"])).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Limit, "{e}");
            assert!(e.message.contains("more than 64 variables"), "{e}");
        }
    }

    #[test]
    fn sat_backend_odist_charges_psi_enumeration_to_the_budget() {
        // ψ has 2^30 − 1 models: enumerating them is ψ's leg of the fit,
        // and `--max-models` must stop it long before the model limit.
        let atoms: Vec<String> = (0..30).map(|i| format!("V{i}")).collect();
        let psi = atoms.join(" | ");
        let e = run(&sv(&[
            "change",
            "odist",
            &psi,
            "!V0",
            "--backend",
            "sat",
            "--max-models",
            "100",
        ]))
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Budget, "{e}");
        assert!(e.message.contains("enumerating ψ's models"), "{e}");
    }

    #[test]
    fn sat_backend_rejects_operators_without_sat_support() {
        let e = run(&sv(&["change", "gmax", "A", "B", "--backend", "sat"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.message.contains("no SAT backend"), "{}", e.message);
        let e = run(&sv(&["models", "A", "--backend", "sat"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
    }

    #[test]
    fn sat_backend_model_fault_interrupts() {
        // Two optimal models at distance 1; faulting the first enumerated
        // model leaves a partial incumbent set.
        let e = run(&sv(&[
            "change",
            "dalal",
            "A & B",
            "!A | !B",
            "--backend",
            "sat",
            "--fault",
            "model:1",
        ]))
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Budget);
        assert!(e.message.contains("interrupted"), "{}", e.message);
    }

    #[test]
    fn weighted_merge_honors_budget_flags() {
        let ok = run(&sv(&[
            "merge",
            "--strategy",
            "weighted",
            "A:2",
            "!A:1",
            "--max-steps",
            "100000",
        ]))
        .unwrap();
        assert!(ok.contains("budget: exact"), "{ok}");
        let e = run(&sv(&[
            "merge",
            "--strategy",
            "weighted",
            "A:2",
            "!A:1",
            "--fault",
            "scan:1",
        ]))
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Budget);
        assert!(
            e.message.contains("upper-bound") || e.message.contains("interrupted"),
            "{}",
            e.message
        );
    }

    #[test]
    fn tiny_step_budget_trips_with_steps_reason_text() {
        // The scan meter batches 1024 ticks per limit check, so a trip
        // needs a pool larger than one stride: a disjunction over 11
        // atoms gives μ 2^11 - 1 = 2047 candidates.
        let atoms: Vec<String> = (0..11).map(|i| format!("a{i}")).collect();
        let mu = atoms.join(" | ");
        let e = run(&sv(&["change", "dalal", "a0", &mu, "--max-steps", "16"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Budget);
        assert!(
            e.message.contains(TripReason::Steps.name()),
            "{}",
            e.message
        );
    }
}
