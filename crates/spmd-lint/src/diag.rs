//! Diagnostic model shared by the library, the CLI, and the fixture tests.

use std::fmt;
use std::path::PathBuf;

/// The seven SPMD determinism rule classes (see DESIGN.md notes 14, 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: collective call reachable inside a conditional keyed on
    /// rank-local state — ranks can disagree on the collective schedule.
    /// Since v2 this is path-sensitive: a rank-keyed branch is clean when
    /// every arm emits the same collective shape.
    DivergentCollective,
    /// R2: iteration over `HashMap`/`HashSet` where order can leak into
    /// wire bytes, election order, or f64 accumulation.
    UnorderedIteration,
    /// R3: ambient nondeterminism (`Instant::now`, `SystemTime`,
    /// `thread_rng`, `RandomState`) outside the cost model and benches.
    NondeterministicSource,
    /// R4: `send`/`send_slice` call site with no `WIRE_BYTES`-based
    /// metering in the enclosing function — padded in-memory sizes leak
    /// into the byte counters.
    UnmeteredSend,
    /// R5: `+=` f64 fold inside an unordered-container loop, bypassing
    /// the canonical deterministic reductions.
    FloatAccumulation,
    /// R6: a call under a rank-keyed branch/loop whose callee
    /// *transitively* performs a collective while the branch arms disagree
    /// on the collective shape — the interprocedural counterpart of R1
    /// that a per-line scanner cannot see.
    DivergentCollectiveTransitive,
    /// R7: a field of a checkpointed struct (declared via `[[checkpoint]]`
    /// in `spmd-lint.toml`) that is never mentioned by its serializer —
    /// the silent-recovery-corruption class.
    CheckpointCompleteness,
}

impl Rule {
    pub fn code(self) -> &'static str {
        match self {
            Rule::DivergentCollective => "R1",
            Rule::UnorderedIteration => "R2",
            Rule::NondeterministicSource => "R3",
            Rule::UnmeteredSend => "R4",
            Rule::FloatAccumulation => "R5",
            Rule::DivergentCollectiveTransitive => "R6",
            Rule::CheckpointCompleteness => "R7",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Rule::DivergentCollective => "divergent-collective",
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::NondeterministicSource => "nondeterministic-source",
            Rule::UnmeteredSend => "unmetered-send",
            Rule::FloatAccumulation => "float-accumulation",
            Rule::DivergentCollectiveTransitive => "divergent-collective-transitive",
            Rule::CheckpointCompleteness => "checkpoint-completeness",
        }
    }

    pub fn severity(self) -> Severity {
        match self {
            // Warnings still fail the build under `--deny`; the split only
            // affects the default (non-deny) exit code.
            Rule::NondeterministicSource => Severity::Warning,
            _ => Severity::Error,
        }
    }

    pub fn from_code(code: &str) -> Option<Rule> {
        match code {
            "R1" | "divergent-collective" => Some(Rule::DivergentCollective),
            "R2" | "unordered-iteration" => Some(Rule::UnorderedIteration),
            "R3" | "nondeterministic-source" => Some(Rule::NondeterministicSource),
            "R4" | "unmetered-send" => Some(Rule::UnmeteredSend),
            "R5" | "float-accumulation" => Some(Rule::FloatAccumulation),
            "R6" | "divergent-collective-transitive" => Some(Rule::DivergentCollectiveTransitive),
            "R7" | "checkpoint-completeness" => Some(Rule::CheckpointCompleteness),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: Rule,
    /// Path as reported (workspace-relative when produced by
    /// `lint_workspace`).
    pub path: PathBuf,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Innermost enclosing function, qualified with the impl type when
    /// there is one (`RankProgram::run_rank`). `None` for items outside
    /// any function body (e.g. R7 struct fields).
    pub fn_name: Option<String>,
    pub message: String,
    /// Trimmed source line, for context in the report and for allowlist
    /// `contains` matching.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.rule.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        writeln!(
            f,
            "{sev}[{}] {}: {}",
            self.rule.code(),
            self.rule.name(),
            self.message
        )?;
        match &self.fn_name {
            Some(func) => writeln!(
                f,
                "  --> {}:{} (in `{func}`)",
                self.path.display(),
                self.line
            )?,
            None => writeln!(f, "  --> {}:{}", self.path.display(), self.line)?,
        }
        write!(f, "   | {}", self.snippet)
    }
}
