//! The CLI phase: sequential child invocations of `psens anonymize`,
//! `check` and `analyze` on the workload's CSV, one at a time (a closed
//! loop with one caller). Every invocation reads, parses and searches
//! again; no warm state survives between them.

use crate::oracle::{release_satisfies, AnalyzeAnswer, CheckAnswer, Expected, Winner};
use crate::{Ctx, K, P, TS};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Wall times of each command, in seconds.
#[derive(Debug, Default)]
pub struct CliTimes {
    pub anonymize_s: Vec<f64>,
    pub check_s: Vec<f64>,
    pub analyze_s: Vec<f64>,
}

/// The number that follows `marker` in `text`.
fn number_after(text: &str, marker: &str) -> Option<usize> {
    let rest = &text[text.find(marker)? + marker.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The winner as `psens anonymize` prints it.
fn printed_winner(stdout: &str) -> Option<Winner> {
    let levels_line = stdout
        .lines()
        .find_map(|l| l.split_once("node levels (for `psens attack --node`):"))?
        .1;
    let levels = levels_line
        .trim()
        .split(',')
        .map(|l| l.parse::<u8>().ok())
        .collect::<Option<Vec<u8>>>()?;
    Some(Winner {
        levels: Some(levels),
        suppressed: number_after(stdout, "suppressed ")?,
    })
}

/// The verdict as `psens check` prints it (violations are not all listed).
fn printed_check(stdout: &str) -> Option<(bool, usize, usize, usize)> {
    let satisfied = stdout.contains("p-sensitive k-anonymity: SATISFIED");
    Some((
        satisfied,
        number_after(stdout, "QI-groups:")?,
        number_after(stdout, "(max k =")?,
        number_after(stdout, "(max p =")?,
    ))
}

/// The numbers `psens analyze` prints that the workload checks.
fn printed_analyze(stdout: &str) -> Option<AnalyzeAnswer> {
    Some(AnalyzeAnswer {
        max_p: number_after(stdout, "Condition 1: maxP =")?,
        uniques: number_after(stdout, "uniques")?,
        disclosures: number_after(stdout, "attribute risk:")?,
    })
}

fn check_matches(stdout: &str, expect: &CheckAnswer) -> bool {
    printed_check(stdout)
        == Some((
            expect.satisfied,
            expect.n_groups,
            expect.max_k,
            expect.max_p,
        ))
}

/// Runs `psens` with `args`, timing spawn to exit.
fn invoke(ctx: &Ctx, args: &[String]) -> Result<(Output, Duration), String> {
    let start = Instant::now();
    let output = Command::new(ctx.bin("psens"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawning psens {}: {e}", args[0]))?;
    Ok((output, start.elapsed()))
}

/// The CLI phase's fixed arguments and what it has measured so far.
pub struct CliPhase {
    anonymize: Vec<String>,
    check: Vec<String>,
    analyze: Vec<String>,
    release: PathBuf,
    first_release: Option<Vec<u8>>,
    request: u64,
}

impl CliPhase {
    pub fn new(ctx: &Ctx) -> CliPhase {
        let spec = ctx.spec_path.to_string_lossy().into_owned();
        let input = ctx.csv_path.to_string_lossy().into_owned();
        let release = ctx.work.join("release.csv");
        let common = |cmd: &str| -> Vec<String> {
            [cmd, "--spec", &spec, "--input", &input]
                .map(str::to_owned)
                .to_vec()
        };
        let (k, p, ts) = (K.to_string(), P.to_string(), TS.to_string());
        let mut anonymize = common("anonymize");
        anonymize.extend(
            [
                "--out",
                &release.to_string_lossy(),
                "--k",
                &k,
                "--p",
                &p,
                "--ts",
                &ts,
            ]
            .map(str::to_owned),
        );
        anonymize.extend(["--algorithm", "samarati"].map(str::to_owned));
        let mut check = common("check");
        check.extend(["--k", &k, "--p", &p].map(str::to_owned));
        CliPhase {
            anonymize,
            check,
            analyze: common("analyze"),
            release,
            first_release: None,
            request: 0,
        }
    }

    /// The released CSV must satisfy the model; every later release must be
    /// byte-identical to the first.
    fn release_ok(&mut self, expect: &Expected) -> bool {
        let Ok(bytes) = std::fs::read(&self.release) else {
            return false;
        };
        match &self.first_release {
            Some(first) => *first == bytes,
            None => {
                let good =
                    release_satisfies(&String::from_utf8_lossy(&bytes), expect.masked.schema());
                self.first_release = good.then_some(bytes);
                good
            }
        }
    }

    /// Runs complete anonymize/check/analyze cycles until `deadline` (at
    /// least one cycle) and returns their wall times.
    pub fn slice(&mut self, ctx: &Ctx, expect: &Expected, deadline: Instant) -> CliTimes {
        let check_code = if expect.check.satisfied { 0 } else { 2 };
        let mut times = CliTimes::default();
        loop {
            let cycle = ctx.tracer.start();
            for name in ["cli.anonymize", "cli.check", "cli.analyze"] {
                let args = match name {
                    "cli.anonymize" => &self.anonymize,
                    "cli.check" => &self.check,
                    _ => &self.analyze,
                };
                self.request += 1;
                ctx.tally.attempt();
                let open = ctx.tracer.start();
                let result = invoke(ctx, args);
                ctx.tracer
                    .finish(open, name, Some(cycle.id()), self.request, true);
                let (output, took) = match result {
                    Ok(r) => r,
                    Err(e) => {
                        ctx.tally.fail(e);
                        continue;
                    }
                };
                let stdout = String::from_utf8_lossy(&output.stdout);
                let code = output.status.code();
                let ok = match name {
                    "cli.anonymize" => {
                        code == Some(0)
                            && printed_winner(&stdout).as_ref() == Some(&expect.winner)
                            && self.release_ok(expect)
                    }
                    "cli.check" => {
                        code == Some(check_code) && check_matches(&stdout, &expect.check)
                    }
                    _ => {
                        code == Some(0)
                            && printed_analyze(&stdout).as_ref() == Some(&expect.analyze)
                    }
                };
                if !ok {
                    ctx.tally.fail(format!(
                        "{name}: exit {code:?} or output differs from the in-process answer:\n{stdout}{}",
                        String::from_utf8_lossy(&output.stderr)
                    ));
                    continue;
                }
                let secs = took.as_secs_f64();
                match name {
                    "cli.anonymize" => times.anonymize_s.push(secs),
                    "cli.check" => times.check_s.push(secs),
                    _ => times.analyze_s.push(secs),
                }
            }
            ctx.tracer.finish(cycle, "cli.cycle", None, 0, true);
            if Instant::now() >= deadline {
                return times;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_output() {
        let anon = "p-k-minimal node: <A2, M0, R1, S0> (height 3), suppressed 7 tuple(s)\n\
                    node levels (for `psens attack --node`): 2,0,1,0\nwrote 10 rows to x\n";
        assert_eq!(
            printed_winner(anon),
            Some(Winner {
                levels: Some(vec![2, 0, 1, 0]),
                suppressed: 7
            })
        );
        let check = "rows: 100 | QI-groups: 37\nk-anonymity (k = 3): VIOLATED (max k = 1)\n\
                     p-sensitivity (p = 2): VIOLATED (max p = 1)\np-sensitive k-anonymity: VIOLATED\n";
        assert_eq!(printed_check(check), Some((false, 37, 1, 1)));
        let analyze = "Condition 1: maxP = 2\n\nidentity risk: max 1.0000, avg 0.1, uniques 12\n\
                       attribute risk: 40 disclosures across 3 groups (1.0% of tuples affected)\n";
        assert_eq!(
            printed_analyze(analyze),
            Some(AnalyzeAnswer {
                max_p: 2,
                uniques: 12,
                disclosures: 40
            })
        );
    }
}
