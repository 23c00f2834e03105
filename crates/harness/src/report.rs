//! The paper's figures and tables, rendered from a saved sweep artifact
//! and checked against the shape the reproduction claims.
//!
//! `shrimp-harness --report <sweep.json>` reads the rows of one sweep and
//! prints the §4.1–4.3 microbenchmarks, Figure 3, both halves of Figure
//! 4, Tables 1–4, the three §4.5 studies and the four sensitivity studies
//! beyond the paper. It runs nothing: every number comes from a row, so
//! the printed tables and the gated artifact cannot disagree.
//!
//! Each claim EXPERIMENTS.md makes about the paper's *shape* — who wins,
//! by roughly what factor, where the crossovers fall — is one [`Band`].
//! Bands are checked on `reduced` and `full` artifacts; a `smoke`
//! artifact (toy sizes on 4 nodes) is rendered with no band checked. The
//! scale comes from the artifact's `"scale"` field.
//!
//! A row is found by configuration, not by id text. A changed row (a
//! syscall per send, an interrupt per arrival) is divided by its as-built
//! twin: the row with the same application, resolved variant
//! ([`RunSpec::resolved_variant`]), node count, seed and machine design,
//! whatever its experiment group ([`RunSpec::same_config`]). An artifact
//! that cannot answer — unreadable, missing a needed row, or holding a
//! failed one — is a [`ReportError`] naming the row, never a panic and
//! never a silent zero.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;

use shrimp_apps::micro::{BULK_BYTES, WORD_BYTES};
use shrimp_apps::Mechanism;
use shrimp_bench::spec::ablation_points;
use shrimp_bench::{format_table, matrix, secs, Ablation, App, Knobs, RunSpec, Scale, Variant};
use shrimp_svm::Protocol;

use crate::json::{self, Json};

/// Why an artifact cannot be reported on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// The file cannot be read or parsed, or lacks a field the report
    /// needs.
    Unreadable(String),
    /// A row the report needs is absent (its id).
    MissingRow(String),
    /// A row the report needs did not complete.
    FailedRow {
        /// The row id.
        id: String,
        /// Its `"status"` (`panic`, `timeout`, ...).
        status: String,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Unreadable(why) => write!(f, "unreadable sweep artifact: {why}"),
            ReportError::MissingRow(id) => write!(f, "missing row {id}"),
            ReportError::FailedRow { id, status } => {
                write!(f, "row {id} did not complete (status \"{status}\")")
            }
        }
    }
}

impl std::error::Error for ReportError {}

/// One checked shape claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Band {
    /// The paper section the claim is about (`"Figure 3"`, `"Table 2"`).
    pub section: &'static str,
    /// The claim, as EXPERIMENTS.md states it.
    pub claim: String,
    /// The values the claim was checked on.
    pub measured: String,
    /// Whether the artifact keeps the claim.
    pub holds: bool,
}

/// A rendered report.
#[derive(Debug, Clone)]
pub struct Report {
    /// The artifact's scale.
    pub scale: Scale,
    /// Every section's table, in paper order.
    pub text: String,
    /// The bands checked (none on a `smoke` artifact).
    pub bands: Vec<Band>,
}

impl Report {
    /// The bands the artifact breaks.
    pub fn broken(&self) -> Vec<&Band> {
        self.bands.iter().filter(|b| !b.holds).collect()
    }

    /// The band verdict, one line per band.
    pub fn render_bands(&self) -> String {
        if self.scale == Scale::Smoke {
            return "\nsmoke artifact (toy sizes on 4 nodes): no bands checked\n".to_string();
        }
        let mut out = format!("\n=== Shape bands ({} scale) ===\n", self.scale.label());
        for b in &self.bands {
            let verdict = if b.holds { "ok" } else { "BROKEN" };
            out.push_str(&format!(
                "{verdict:<7} {}: {} [{}]\n",
                b.section, b.claim, b.measured
            ));
        }
        out.push_str(&format!(
            "{} bands checked, {} broken\n",
            self.bands.len(),
            self.broken().len()
        ));
        out
    }
}

/// Reads and reports on the sweep artifact at `path`.
pub fn load(path: &Path) -> Result<Report, ReportError> {
    let bytes = std::fs::read(path)
        .map_err(|e| ReportError::Unreadable(format!("{}: {e}", path.display())))?;
    let doc = json::parse_bytes(&bytes).map_err(ReportError::Unreadable)?;
    build(&doc)
}

/// Reports on a parsed sweep document.
pub fn build(doc: &Json) -> Result<Report, ReportError> {
    let sweep = Sweep::parse(doc)?;
    let mut b = Builder {
        sweep,
        text: String::new(),
        bands: Vec::new(),
    };
    b.micro()?;
    b.fig3()?;
    b.fig4_left()?;
    b.fig4_right()?;
    b.table1()?;
    b.table2()?;
    b.table3()?;
    b.table4()?;
    b.combining()?;
    b.fifo()?;
    b.du_queue()?;
    b.ablation()?;
    Ok(Report {
        scale: b.sweep.scale,
        text: b.text,
        bands: b.bands,
    })
}

/// The artifact's rows by id, and the matrix they were drawn from.
struct Sweep<'a> {
    scale: Scale,
    /// The headline node count (the paper's 16).
    nodes: usize,
    rows: HashMap<&'a str, &'a Json>,
    specs: Vec<RunSpec>,
}

impl<'a> Sweep<'a> {
    fn parse(doc: &'a Json) -> Result<Self, ReportError> {
        let unreadable = |why: &str| ReportError::Unreadable(why.to_string());
        let label = doc
            .get("scale")
            .and_then(Json::as_str)
            .ok_or_else(|| unreadable("no \"scale\" field"))?;
        let scale = [Scale::Smoke, Scale::Reduced, Scale::Full]
            .into_iter()
            .find(|s| s.label() == label)
            .ok_or_else(|| unreadable(&format!("unknown scale \"{label}\"")))?;
        let list = doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| unreadable("no \"rows\" array"))?;
        let mut rows = HashMap::new();
        for row in list {
            let id = row
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| unreadable("a row has no \"id\""))?;
            rows.insert(id, row);
        }
        // The headline size is the widest run of a Table 1 application
        // (every such group runs at it); the cluster and kv groups run at
        // their own fixed sizes and are not counted.
        let nodes = list
            .iter()
            .filter(|r| {
                let app = r.get("app").and_then(Json::as_str);
                App::all().iter().any(|a| Some(a.name()) == app)
            })
            .filter_map(|r| r.get("nodes").and_then(Json::as_u64))
            .filter_map(|n| usize::try_from(n).ok())
            .filter(|&n| n > 0)
            .max()
            .unwrap_or(scale.default_nodes());
        Ok(Sweep {
            scale,
            nodes,
            rows,
            specs: matrix(scale, nodes),
        })
    }

    /// The matrix runs of one experiment group, in matrix order.
    fn group(&self, experiment: &str) -> Vec<RunSpec> {
        self.specs
            .iter()
            .filter(|s| s.experiment == experiment)
            .cloned()
            .collect()
    }

    /// The metrics of `wanted`'s configuration: its own row if present,
    /// else the first matrix row run under the same configuration.
    fn metrics(&self, wanted: &RunSpec) -> Result<&'a Json, ReportError> {
        let twins = self.specs.iter().filter(|s| s.same_config(wanted));
        let ids: Vec<String> = std::iter::once(wanted)
            .chain(twins)
            .map(RunSpec::id)
            .collect();
        let found = ids
            .iter()
            .find_map(|id| self.rows.get(id.as_str()).map(|row| (id, *row)));
        let Some((id, row)) = found else {
            // Name the row the matrix writes: `wanted` itself, or, for a
            // twin no group runs under its own id, the first that has it.
            let in_matrix = |id: &&String| self.specs.iter().any(|s| s.id() == **id);
            let named = ids.iter().find(in_matrix).unwrap_or(&ids[0]);
            return Err(ReportError::MissingRow(named.clone()));
        };
        match row.get("status").and_then(Json::as_str) {
            Some("ok") => row.get("metrics").ok_or_else(|| {
                ReportError::Unreadable(format!("row {id} is ok but has no \"metrics\""))
            }),
            Some(status) => Err(ReportError::FailedRow {
                id: id.clone(),
                status: status.to_string(),
            }),
            None => Err(ReportError::Unreadable(format!(
                "row {id} has no \"status\""
            ))),
        }
    }

    fn metric(&self, spec: &RunSpec, name: &str) -> Result<u64, ReportError> {
        self.metrics(spec)?
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| {
                ReportError::Unreadable(format!(
                    "the row of {} has no integer \"{name}\"",
                    spec.id()
                ))
            })
    }

    /// Simulated time of `spec`'s configuration; zero is refused, since
    /// every ratio the report prints divides by it.
    fn elapsed(&self, spec: &RunSpec) -> Result<f64, ReportError> {
        match self.metric(spec, "elapsed_ns")? {
            0 => Err(ReportError::Unreadable(format!(
                "the row of {} has elapsed_ns 0",
                spec.id()
            ))),
            t => Ok(t as f64),
        }
    }
}

struct Builder<'a> {
    sweep: Sweep<'a>,
    text: String,
    bands: Vec<Band>,
}

/// `(application, value)` pairs listed largest first: `A 8.63x > B 5.15x`.
fn ranking(values: &[(App, f64)], fmt: impl Fn(f64) -> String) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    let parts: Vec<String> = sorted
        .iter()
        .map(|(app, v)| format!("{} {}", app.name(), fmt(*v)))
        .collect();
    parts.join(" > ")
}

fn value_of(values: &[(App, f64)], app: App) -> f64 {
    values
        .iter()
        .find(|(a, _)| *a == app)
        .map_or(f64::NAN, |&(_, v)| v)
}

/// `true` when `app`'s value is above (`top`) or below every other one.
fn is_extreme(values: &[(App, f64)], app: App, top: bool) -> bool {
    let v = value_of(values, app);
    values
        .iter()
        .filter(|(a, _)| *a != app)
        .all(|&(_, o)| if top { v > o } else { v < o })
}

fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// A time ratio as a signed percent change: `1.05` is `+5.0%`.
fn change(ratio: f64) -> String {
    pct((ratio - 1.0) * 100.0)
}

/// How far a time ratio is from 1, in percent.
fn percent_off(ratio: f64) -> f64 {
    ((ratio - 1.0) * 100.0).abs()
}

fn times(v: f64) -> String {
    format!("{v:.2}x")
}

fn micros(ps: f64) -> String {
    format!("{:.2} us", ps / 1e6)
}

/// Bandwidth in MB/s of `bytes` moved in `ps` picoseconds.
fn mbps(bytes: usize, ps: f64) -> f64 {
    bytes as f64 * 1e6 / ps
}

/// `true` when every value is above the one before it.
fn rising(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[1] > w[0])
}

/// `(point, value)` pairs in study order: `15 MB/s 1.23x, 30 MB/s 1.31x`.
fn series(points: &[(u64, f64)], unit: &str, fmt: impl Fn(f64) -> String) -> String {
    let parts: Vec<String> = points
        .iter()
        .map(|&(p, v)| format!("{p} {unit} {}", fmt(v)))
        .collect();
    parts.join(", ")
}

/// `App (VARIANT)` for rows whose version matters.
fn versioned(spec: &RunSpec) -> String {
    format!(
        "{} ({})",
        spec.app.name(),
        spec.resolved_variant().label().to_uppercase()
    )
}

impl Builder<'_> {
    /// Records a band; `smoke` artifacts record none.
    fn band(&mut self, section: &'static str, claim: &str, measured: String, holds: bool) {
        if self.sweep.scale != Scale::Smoke {
            self.bands.push(Band {
                section,
                claim: claim.to_string(),
                measured,
                holds,
            });
        }
    }

    fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        self.text.push_str(&format_table(title, headers, rows));
    }

    fn micro(&mut self) -> Result<(), ReportError> {
        const S: &str = "§4.1–4.3";
        // (measurement, paper value) of each `micro` row, in matrix order.
        const LINES: [(&str, &str); 7] = [
            ("One-word latency, DU", "~6 us"),
            ("One-word latency, AU", "3.71 us"),
            ("16 KiB transfer, DU", "-"),
            ("16 KiB transfer, AU", "-"),
            ("16 KiB transfer, AU no combining", "-"),
            ("64 B send overhead, UDMA", "< 2 us"),
            ("64 B send overhead, syscall", "tens of us"),
        ];
        let mut t = [0.0; 7];
        let mut rows = Vec::new();
        for (i, ((label, paper), spec)) in LINES.iter().zip(self.sweep.group("micro")).enumerate() {
            t[i] = self.sweep.elapsed(&spec)?;
            let bytes = match spec.app {
                App::MicroLatency => Some(WORD_BYTES),
                App::MicroBulk => Some(BULK_BYTES),
                _ => None,
            };
            rows.push(vec![
                label.to_string(),
                format!("{:.2}", t[i] / 1e6),
                bytes.map_or("-".to_string(), |b| format!("{:.1}", mbps(b, t[i]))),
                paper.to_string(),
            ]);
        }
        self.table(
            "§4.1–4.3: microbenchmarks (2 nodes)",
            &["Measurement", "Time (us)", "MB/s", "Paper"],
            &rows,
        );
        let [du_word, au_word, _, au_bulk, nocomb_bulk, udma, sys] = t;
        self.band(
            S,
            "AU one-word latency is below DU's",
            format!("AU {} vs DU {}", micros(au_word), micros(du_word)),
            au_word < du_word,
        );
        self.band(
            S,
            "a user-level DMA send costs under 2 us",
            micros(udma),
            udma < 2e6,
        );
        self.band(
            S,
            "a syscall send costs at least 10x a user-level DMA send",
            times(sys / udma),
            sys >= 10.0 * udma,
        );
        let (comb_bw, nocomb_bw) = (mbps(BULK_BYTES, au_bulk), mbps(BULK_BYTES, nocomb_bulk));
        self.band(
            S,
            "AU bulk bandwidth without combining is under half of it with combining",
            format!("{nocomb_bw:.1} vs {comb_bw:.1} MB/s"),
            nocomb_bw < comb_bw / 2.0,
        );
        Ok(())
    }

    fn fig3(&mut self) -> Result<(), ReportError> {
        const S: &str = "Figure 3";
        let specs = self.sweep.group("fig3");
        let mut counts: Vec<usize> = specs.iter().map(|s| s.nodes).collect();
        counts.sort_unstable();
        counts.dedup();
        let mut rows = Vec::new();
        // (application, speedup at each count)
        let mut curves: Vec<(App, Vec<f64>)> = Vec::new();
        for seq_spec in specs.iter().filter(|s| s.nodes == 1) {
            let seq = self.sweep.elapsed(seq_spec)?;
            let mut speedups = Vec::new();
            for &c in &counts {
                speedups.push(seq / self.sweep.elapsed(&seq_spec.clone().with_nodes(c))?);
            }
            let mut row = vec![versioned(seq_spec)];
            row.extend(speedups.iter().map(|s| format!("{s:.2}")));
            rows.push(row);
            curves.push((seq_spec.app, speedups));
        }
        let mut headers = vec!["Application".to_string()];
        headers.extend(counts.iter().map(|c| format!("p={c}")));
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        self.table(
            "Figure 3: speedup over each version's own p=1 run",
            &headers,
            &rows,
        );

        let &[.., prev, top] = counts.as_slice() else {
            return Ok(());
        };
        let at = |i: usize| -> Vec<(App, f64)> { curves.iter().map(|(a, s)| (*a, s[i])).collect() };
        let top_speed = at(counts.len() - 1);
        let gain = |app: App| value_of(&top_speed, app) / value_of(&at(counts.len() - 2), app);
        let order = ranking(&top_speed, times);
        self.band(
            S,
            &format!("Ocean-NX has the highest p{top} speedup"),
            order.clone(),
            is_extreme(&top_speed, App::OceanNx, true),
        );
        self.band(
            S,
            &format!("Barnes-SVM has the lowest p{top} speedup"),
            order.clone(),
            is_extreme(&top_speed, App::BarnesSvm, false),
        );
        let (bnx, onx) = (gain(App::BarnesNx), gain(App::OceanNx));
        self.band(
            S,
            &format!("Barnes-NX gains less from p{prev} to p{top} than Ocean-NX"),
            format!("Barnes-NX {} vs Ocean-NX {}", times(bnx), times(onx)),
            bnx < onx,
        );
        if self.sweep.scale == Scale::Full {
            let v = value_of(&top_speed, App::RadixVmmc);
            let above = top_speed.iter().filter(|&&(_, o)| o > v).count();
            self.band(
                S,
                &format!("Radix-VMMC (AU) is among the two best p{top} speedups"),
                order,
                above < 2,
            );
        }
        Ok(())
    }

    fn fig4_left(&mut self) -> Result<(), ReportError> {
        const S: &str = "Figure 4 (left)";
        let hlrc = Variant::Protocol(Protocol::Hlrc);
        let mut rows = Vec::new();
        let (mut aurc, mut hlrc_au) = (Vec::new(), Vec::new());
        for spec in self.sweep.group("fig4-svm-au") {
            let base = self.sweep.elapsed(&spec.clone().with_variant(hlrc))?;
            let norm = self.sweep.elapsed(&spec)? / base;
            let gain = (1.0 - norm) * 100.0;
            match spec.variant {
                Variant::Protocol(Protocol::Aurc) => aurc.push((spec.app, gain)),
                Variant::Protocol(Protocol::HlrcAu) => hlrc_au.push((spec.app, gain)),
                _ => {}
            }
            rows.push(vec![
                spec.app.name().to_string(),
                spec.variant.label().to_uppercase(),
                format!("{norm:.3}"),
                pct(gain),
            ]);
        }
        self.table(
            "Figure 4 (left): execution time normalized to HLRC",
            &["Application", "Protocol", "Norm time", "Gain vs HLRC"],
            &rows,
        );
        self.band(
            S,
            "AURC beats HLRC on every SVM application",
            ranking(&aurc, pct),
            aurc.iter().all(|&(_, g)| g > 0.0),
        );
        self.band(
            S,
            "AURC's widest margin over HLRC is on Radix-SVM",
            ranking(&aurc, pct),
            is_extreme(&aurc, App::RadixSvm, true),
        );
        self.band(
            S,
            "HLRC-AU gains at most 5% over HLRC",
            ranking(&hlrc_au, pct),
            hlrc_au.iter().all(|&(_, g)| g <= 5.0),
        );
        Ok(())
    }

    fn fig4_right(&mut self) -> Result<(), ReportError> {
        const S: &str = "Figure 4 (right)";
        let au = Variant::Mechanism(Mechanism::AutomaticUpdate);
        let mut rows = Vec::new();
        let mut ratios = Vec::new();
        for du_spec in self
            .sweep
            .group("fig4-du-au")
            .into_iter()
            .filter(|s| s.variant != au)
        {
            let seq = self.sweep.elapsed(&du_spec.clone().with_nodes(1))?;
            let du = self.sweep.elapsed(&du_spec)?;
            let au_time = self.sweep.elapsed(&du_spec.clone().with_variant(au))?;
            ratios.push((du_spec.app, du / au_time));
            rows.push(vec![
                du_spec.app.name().to_string(),
                format!("{:.2}", seq / du),
                format!("{:.2}", seq / au_time),
                times(du / au_time),
            ]);
        }
        self.table(
            &format!(
                "Figure 4 (right): speedups at {} nodes over the DU p=1 run",
                self.sweep.nodes
            ),
            &["Application", "DU speedup", "AU speedup", "AU/DU"],
            &rows,
        );
        let radix = value_of(&ratios, App::RadixVmmc);
        self.band(
            S,
            "AU helps Radix-VMMC: AU/DU above 1.1",
            format!("Radix-VMMC {}", times(radix)),
            radix > 1.1,
        );
        let (ocean, barnes) = (
            value_of(&ratios, App::OceanNx),
            value_of(&ratios, App::BarnesNx),
        );
        self.band(
            S,
            "AU does not help the NX applications: AU/DU at most 1.05",
            format!("Ocean-NX {}, Barnes-NX {}", times(ocean), times(barnes)),
            ocean <= 1.05 && barnes <= 1.05,
        );
        Ok(())
    }

    fn table1(&mut self) -> Result<(), ReportError> {
        let scale = self.sweep.scale;
        let mut rows = Vec::new();
        for app in App::all() {
            let nodes = app.min_nodes();
            let seq = self
                .sweep
                .elapsed(&RunSpec::new("table1", app, nodes, scale))?;
            let note = if nodes > 1 {
                format!(" ({nodes}-node)")
            } else {
                String::new()
            };
            rows.push(vec![
                app.name().to_string(),
                app.api().to_string(),
                app.problem_size(scale),
                format!("{}{note}", secs(seq as u64)),
            ]);
        }
        self.table(
            "Table 1: characteristics of the applications",
            &["Application", "API", "Problem size", "Seq time (s)"],
            &rows,
        );
        Ok(())
    }

    /// Tables 2 and 4: every row of `experiment` against its as-built
    /// twin. Returns each application's increase in percent.
    fn changed_rows(
        &mut self,
        section: &str,
        experiment: &str,
        what: &str,
        headers: &[&str],
    ) -> Result<Vec<(App, f64)>, ReportError> {
        let n = self.sweep.nodes;
        let mut rows = Vec::new();
        let mut increases = Vec::new();
        for spec in self.sweep.group(experiment) {
            let twin = spec.clone().with_knobs(Knobs::as_built());
            let base = self.sweep.elapsed(&twin)?;
            let changed = self.sweep.elapsed(&spec)?;
            let increase = (changed / base - 1.0) * 100.0;
            increases.push((spec.app, increase));
            let label = if spec.nodes == n {
                spec.app.name().to_string()
            } else {
                format!("{} ({} nodes)", spec.app.name(), spec.nodes)
            };
            rows.push(vec![
                label,
                secs(base as u64),
                secs(changed as u64),
                self.sweep.metric(&twin, "messages")?.to_string(),
                pct(increase),
            ]);
        }
        self.table(
            &format!("{section}: execution-time increase with {what} ({n} nodes)"),
            headers,
            &rows,
        );
        Ok(increases)
    }

    fn table2(&mut self) -> Result<(), ReportError> {
        const S: &str = "Table 2";
        let increases = self.changed_rows(
            S,
            "table2",
            "a system call per send",
            &[
                "Application",
                "UDMA (s)",
                "Syscall (s)",
                "Messages",
                "Increase",
            ],
        )?;
        let order = ranking(&increases, pct);
        self.band(
            S,
            "every application slows",
            order.clone(),
            increases.iter().all(|&(_, i)| i > 0.0),
        );
        self.band(
            S,
            "Barnes-NX slows the most",
            order.clone(),
            is_extreme(&increases, App::BarnesNx, true),
        );
        let least = increases.iter().min_by(|a, b| a.1.total_cmp(&b.1));
        self.band(
            S,
            "a Radix application slows the least",
            order,
            least.is_some_and(|(app, _)| matches!(app, App::RadixSvm | App::RadixVmmc)),
        );
        Ok(())
    }

    fn table4(&mut self) -> Result<(), ReportError> {
        const S: &str = "Table 4";
        let increases = self.changed_rows(
            S,
            "table4",
            "an interrupt per arrival",
            &[
                "Application",
                "Base (s)",
                "Interrupts (s)",
                "Messages",
                "Slowdown",
            ],
        )?;
        self.band(
            S,
            "no application speeds up",
            ranking(&increases, pct),
            increases.iter().all(|&(_, i)| i >= 0.0),
        );
        let radix = value_of(&increases, App::RadixVmmc);
        self.band(
            S,
            "Radix-VMMC slows by at most 1%",
            format!("Radix-VMMC {}", pct(radix)),
            radix <= 1.0,
        );
        Ok(())
    }

    fn table3(&mut self) -> Result<(), ReportError> {
        const S: &str = "Table 3";
        let (scale, n) = (self.sweep.scale, self.sweep.nodes);
        let mut rows = Vec::new();
        let mut svm_shares = Vec::new();
        let mut others_notified = 0;
        for app in App::all() {
            let spec = RunSpec::new("table1", app, n.max(app.min_nodes()), scale);
            let notifications = self.sweep.metric(&spec, "notifications")?;
            let messages = self.sweep.metric(&spec, "messages")?;
            let share = if messages > 0 {
                notifications as f64 / messages as f64 * 100.0
            } else {
                0.0
            };
            if app.api() == "SVM" {
                svm_shares.push((app, share));
            } else {
                others_notified += notifications;
            }
            rows.push(vec![
                app.name().to_string(),
                notifications.to_string(),
                messages.to_string(),
                format!("{share:.0}%"),
            ]);
        }
        self.table(
            &format!("Table 3: notifications vs total messages ({n} nodes)"),
            &["Application", "Notifications", "Total messages", "%"],
            &rows,
        );
        self.band(
            S,
            "the SVM applications notify with at least 5% of their messages; \
             every other application sends none",
            format!(
                "{}; other notifications: {others_notified}",
                ranking(&svm_shares, |v| format!("{v:.0}%"))
            ),
            svm_shares.iter().all(|&(_, s)| s >= 5.0) && others_notified == 0,
        );
        Ok(())
    }

    /// §4.5: the group's runs come in pairs, the design as built first.
    /// Returns each application's second-over-first time ratio.
    fn pairs(
        &mut self,
        section: &str,
        experiment: &str,
        what: &str,
        columns: [&str; 2],
    ) -> Result<Vec<(App, f64)>, ReportError> {
        let mut rows = Vec::new();
        let mut ratios = Vec::new();
        for pair in self.sweep.group(experiment).chunks_exact(2) {
            let (a, b) = (self.sweep.elapsed(&pair[0])?, self.sweep.elapsed(&pair[1])?);
            ratios.push((pair[0].app, b / a));
            rows.push(vec![
                versioned(&pair[0]),
                secs(a as u64),
                secs(b as u64),
                format!("{} ({})", change(b / a), times(b / a)),
            ]);
        }
        self.table(
            &format!("{section}: {what} ({} nodes)", self.sweep.nodes),
            &["Application", columns[0], columns[1], "Change"],
            &rows,
        );
        Ok(ratios)
    }

    fn combining(&mut self) -> Result<(), ReportError> {
        const S: &str = "§4.5.1";
        let ratios = self.pairs(S, "combining", "combining on vs off", ["On (s)", "Off (s)"])?;
        let radix: Vec<(App, f64)> = ratios
            .iter()
            .copied()
            .filter(|(a, _)| matches!(a, App::RadixVmmc | App::RadixSvm))
            .collect();
        self.band(
            S,
            "Radix-VMMC and Radix-SVM change by less than 1% without combining",
            ranking(&radix, change),
            radix.iter().all(|&(_, r)| percent_off(r) < 1.0),
        );
        let dfs = value_of(&ratios, App::DfsSockets);
        self.band(
            S,
            "DFS forced onto AU runs at least 1.5x slower without combining",
            format!("DFS-sockets {}", times(dfs)),
            dfs >= 1.5,
        );
        Ok(())
    }

    fn fifo(&mut self) -> Result<(), ReportError> {
        const S: &str = "§4.5.2";
        let columns = ["32 KB (s)", "1 KB (s)"];
        let ratios = self.pairs(S, "fifo", "32 KB vs 1 KB outgoing FIFO", columns)?;
        self.band(
            S,
            "every application differs by less than 1% with a 1 KB FIFO",
            ranking(&ratios, change),
            ratios.iter().all(|&(_, r)| percent_off(r) < 1.0),
        );
        Ok(())
    }

    fn du_queue(&mut self) -> Result<(), ReportError> {
        const S: &str = "§4.5.3";
        let columns = ["Depth 1 (s)", "Depth 2 (s)"];
        let ratios = self.pairs(S, "du-queue", "DU request queue depth 1 vs 2", columns)?;
        self.band(
            S,
            "a 2-deep DU queue changes every application by at most 3%",
            ranking(&ratios, change),
            ratios.iter().all(|&(_, r)| percent_off(r) <= 3.0),
        );
        Ok(())
    }

    /// The four sensitivity studies. Each as-built point is read from the
    /// row the matrix runs under that configuration.
    fn ablation(&mut self) -> Result<(), ReportError> {
        const S: &str = "Ablation";
        let n = self.sweep.nodes;
        let points = ablation_points(self.sweep.scale, n);
        let study = |f: fn(Ablation) -> Option<u64>| -> Vec<(u64, RunSpec)> {
            points
                .iter()
                .filter_map(|s| Some((f(s.knobs.ablation?)?, s.clone())))
                .collect()
        };

        let mut rows = Vec::new();
        for (bytes, spec) in study(|a| match a {
            Ablation::CombineSubpage(b) => Some(b as u64),
            _ => None,
        }) {
            rows.push(vec![
                bytes.to_string(),
                secs(self.sweep.elapsed(&spec)? as u64),
            ]);
        }
        self.table(
            &format!("Ablation: combining sub-page size vs DFS (forced AU) time ({n} nodes)"),
            &["Sub-page (bytes)", "Time (s)"],
            &rows,
        );

        let mut rows = Vec::new();
        let mut advantage = Vec::new();
        for pair in study(|a| match a {
            Ablation::EisaMbps(m) => Some(m),
            _ => None,
        })
        .chunks_exact(2)
        {
            let (du, au) = (
                self.sweep.elapsed(&pair[0].1)?,
                self.sweep.elapsed(&pair[1].1)?,
            );
            advantage.push((pair[0].0, du / au));
            rows.push(vec![
                pair[0].0.to_string(),
                secs(du as u64),
                secs(au as u64),
                times(du / au),
            ]);
        }
        self.table(
            &format!("Ablation: I/O-bus DMA bandwidth vs Radix-VMMC DU/AU ({n} nodes)"),
            &["DMA MB/s", "DU (s)", "AU (s)", "AU advantage"],
            &rows,
        );
        let values: Vec<f64> = advantage.iter().map(|&(_, v)| v).collect();
        self.band(
            S,
            "the AU advantage on Radix-VMMC rises with I/O-bus bandwidth",
            series(&advantage, "MB/s", times),
            rising(&values),
        );

        let interrupts = study(|a| match a {
            Ablation::InterruptCost(us) => Some(us),
            _ => None,
        });
        let mut rows = Vec::new();
        let mut slowdown = Vec::new();
        if let Some((_, first)) = interrupts.first() {
            let twin = first.clone().with_knobs(Knobs::as_built());
            let base = self.sweep.elapsed(&twin)?;
            for (us, spec) in &interrupts {
                let t = self.sweep.elapsed(spec)?;
                slowdown.push((*us, (t / base - 1.0) * 100.0));
                rows.push(vec![us.to_string(), secs(t as u64), change(t / base)]);
            }
        }
        self.table(
            &format!(
                "Ablation: interrupt cost vs forced-interrupt slowdown (Radix-VMMC, {n} nodes)"
            ),
            &["Interrupt cost (us)", "Time (s)", "Slowdown"],
            &rows,
        );
        let values: Vec<f64> = slowdown.iter().map(|&(_, v)| v).collect();
        self.band(
            S,
            "the forced-interrupt slowdown rises with interrupt cost",
            series(&slowdown, "us", pct),
            rising(&values),
        );

        let mut rows = Vec::new();
        for (ns, spec) in study(|a| match a {
            Ablation::HopLatency(ns) => Some(ns),
            _ => None,
        }) {
            rows.push(vec![
                ns.to_string(),
                secs(self.sweep.elapsed(&spec)? as u64),
            ]);
        }
        self.table(
            &format!("Ablation: router hop latency vs Radix-VMMC (DU) time ({n} nodes)"),
            &["Hop latency (ns)", "Time (s)"],
            &rows,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The groups the report reads.
    const GROUPS: [&str; 11] = [
        "micro",
        "fig3",
        "fig4-svm-au",
        "fig4-du-au",
        "table1",
        "table2",
        "table4",
        "combining",
        "fifo",
        "du-queue",
        "ablation",
    ];

    /// A made-up but paper-shaped time for `spec`: per-application
    /// speedup curves `p^e`, version and knob factors chosen so every
    /// band holds with margin.
    fn synthetic_elapsed(spec: &RunSpec) -> u64 {
        let k = &spec.knobs;
        let au = spec.resolved_variant() == Variant::Mechanism(Mechanism::AutomaticUpdate);
        match spec.app {
            App::MicroLatency => return if au { 3_000_000 } else { 6_000_000 },
            App::MicroBulk if !au => return 800_000_000,
            App::MicroBulk if k.combining == Some(false) => return 3_000_000_000,
            App::MicroBulk => return 900_000_000,
            App::MicroSendOverhead if k.syscall_send => return 26_000_000,
            App::MicroSendOverhead => return 800_000,
            _ => {}
        }
        let exponent = match spec.app {
            App::OceanNx => 0.8,
            App::BarnesNx => 0.6,
            App::RadixVmmc | App::RadixSvm => 0.55,
            App::OceanSvm => 0.4,
            App::BarnesSvm => 0.3,
            _ => 0.5,
        };
        let mut t = 1e12 / (spec.nodes as f64).powf(exponent);
        t *= match (spec.app, spec.resolved_variant()) {
            (App::RadixVmmc, Variant::Mechanism(Mechanism::DeliberateUpdate)) => 1.3,
            (App::RadixSvm, Variant::Protocol(Protocol::Hlrc | Protocol::HlrcAu)) => 2.0,
            (_, Variant::Protocol(Protocol::Hlrc | Protocol::HlrcAu)) => 1.2,
            _ => 1.0,
        };
        if let Some(Ablation::EisaMbps(mbps)) = k.ablation {
            // A faster I/O bus helps AU more than DU.
            t *= (30.0 / mbps as f64).powf(if au { 0.5 } else { 0.3 });
        }
        if k.syscall_send {
            t *= match spec.app {
                App::BarnesNx => 1.5,
                App::RadixVmmc | App::RadixSvm => 1.02,
                _ => 1.1,
            };
        }
        if k.interrupt_per_message {
            let cost_us = match k.ablation {
                Some(Ablation::InterruptCost(us)) => us as f64,
                _ => 20.0,
            };
            let at_20us = if spec.app == App::RadixVmmc {
                0.005
            } else {
                0.05
            };
            t *= 1.0 + at_20us * cost_us / 20.0;
        }
        if k.combining == Some(false) && spec.app == App::DfsSockets {
            t *= 2.0;
        }
        t as u64
    }

    fn row(spec: &RunSpec, status: &str, elapsed: u64) -> String {
        let notifications = if spec.app.api() == "SVM" { 500 } else { 0 };
        format!(
            "{{\"id\": \"{}\", \"app\": \"{}\", \"nodes\": {}, \"status\": \"{status}\", \
             \"metrics\": {{\"elapsed_ns\": {elapsed}, \"messages\": 1000, \
             \"notifications\": {notifications}}}}}",
            spec.id(),
            spec.app.name(),
            spec.nodes
        )
    }

    /// A sweep document over the paper groups of the matrix at `scale`,
    /// with `edit` applied to each spec's row text.
    fn document(scale: Scale, edit: impl Fn(&RunSpec, String) -> Option<String>) -> Json {
        let rows: Vec<String> = matrix(scale, scale.default_nodes())
            .iter()
            .filter(|s| GROUPS.contains(&s.experiment))
            .filter_map(|s| edit(s, row(s, "ok", synthetic_elapsed(s))))
            .collect();
        let text = format!(
            "{{\"scale\": \"{}\", \"rows\": [{}]}}",
            scale.label(),
            rows.join(", ")
        );
        json::parse(&text).expect("the test document is valid JSON")
    }

    const SECTIONS: [&str; 12] = [
        "§4.1–4.3",
        "Figure 3",
        "Figure 4 (left)",
        "Figure 4 (right)",
        "Table 1",
        "Table 2",
        "Table 3",
        "Table 4",
        "§4.5.1",
        "§4.5.2",
        "§4.5.3",
        "Ablation",
    ];

    #[test]
    fn a_paper_shaped_reduced_sweep_renders_every_section_and_breaks_no_band() {
        let report = build(&document(Scale::Reduced, |_, row| Some(row))).unwrap();
        for section in SECTIONS {
            assert!(
                report.text.contains(&format!("=== {section}")),
                "{section} not rendered"
            );
            assert!(
                report.bands.iter().any(|b| b.section == section) || section == "Table 1",
                "{section} checks no band"
            );
        }
        assert_eq!(report.bands.len(), 24);
        assert!(report.broken().is_empty(), "{}", report.render_bands());
        assert!(report.render_bands().contains("24 bands checked, 0 broken"));
    }

    /// Builds a reduced document with `edit` applied, and checks that the
    /// bands it breaks are exactly the ones whose claim starts with `claim`.
    fn breaks_only(edit: impl Fn(&RunSpec, String) -> Option<String>, claim: &str) {
        let report = build(&document(Scale::Reduced, edit)).unwrap();
        let broken = report.broken();
        assert!(!broken.is_empty(), "the edit broke nothing");
        assert!(
            broken.iter().all(|b| b.claim.starts_with(claim)),
            "{}",
            report.render_bands()
        );
    }

    #[test]
    fn au_latency_not_below_du_breaks_only_its_micro_band() {
        let du = RunSpec::new("micro", App::MicroLatency, 2, Scale::Reduced)
            .with_variant(Variant::Mechanism(Mechanism::DeliberateUpdate));
        let au = du
            .clone()
            .with_variant(Variant::Mechanism(Mechanism::AutomaticUpdate));
        let edit = |s: &RunSpec, text| {
            Some(if *s == au {
                row(s, "ok", synthetic_elapsed(&du))
            } else {
                text
            })
        };
        breaks_only(edit, "AU one-word latency is below DU's");
    }

    #[test]
    fn a_flat_eisa_series_breaks_only_its_ablation_band() {
        // Every EISA point runs in its as-built time, so the AU advantage
        // is the same at every bandwidth.
        let edit = |s: &RunSpec, text| {
            Some(match s.knobs.ablation {
                Some(Ablation::EisaMbps(_)) => {
                    let built = s.clone().with_knobs(Knobs::as_built());
                    row(s, "ok", synthetic_elapsed(&built))
                }
                _ => text,
            })
        };
        breaks_only(edit, "the AU advantage on Radix-VMMC rises");
    }

    #[test]
    fn radix_aurc_slower_than_hlrc_breaks_only_figure_4_left() {
        let aurc = RunSpec::new("fig4-svm-au", App::RadixSvm, 16, Scale::Reduced)
            .with_variant(Variant::Protocol(Protocol::Aurc));
        let hlrc = aurc.clone().with_variant(Variant::Protocol(Protocol::Hlrc));
        let doc = document(Scale::Reduced, |s, text| {
            Some(if *s == aurc {
                row(s, "ok", synthetic_elapsed(&hlrc) + 1)
            } else {
                text
            })
        });
        let report = build(&doc).unwrap();
        let broken = report.broken();
        assert!(!broken.is_empty(), "a slower AURC broke nothing");
        assert!(
            broken.iter().all(|b| b.section == "Figure 4 (left)"),
            "{}",
            report.render_bands()
        );
        assert!(report
            .render_bands()
            .contains("BROKEN  Figure 4 (left): AURC beats HLRC"));
    }

    #[test]
    fn a_missing_row_is_named() {
        let gone = "fig3/ocean-nx-au/p1/as-built";
        let doc = document(Scale::Reduced, |s, text| (s.id() != gone).then_some(text));
        let err = build(&doc).unwrap_err();
        assert_eq!(err, ReportError::MissingRow(gone.to_string()));
        assert_eq!(err.to_string(), format!("missing row {gone}"));
    }

    #[test]
    fn a_failed_row_is_an_error_not_a_zero() {
        let failed = "table2/barnes-nx-default/p16/syscall";
        let doc = document(Scale::Reduced, |s, text| {
            Some(if s.id() == failed {
                format!("{{\"id\": \"{failed}\", \"status\": \"panicked\"}}")
            } else {
                text
            })
        });
        assert_eq!(
            build(&doc).unwrap_err(),
            ReportError::FailedRow {
                id: failed.to_string(),
                status: "panicked".to_string()
            }
        );
    }

    #[test]
    fn unreadable_artifacts_are_typed_errors() {
        let unreadable = |text: &str| {
            matches!(
                build(&json::parse(text).unwrap()),
                Err(ReportError::Unreadable(_))
            )
        };
        assert!(unreadable("{\"rows\": []}"));
        assert!(unreadable("{\"scale\": \"huge\", \"rows\": []}"));
        assert!(unreadable("{\"scale\": \"smoke\"}"));
        let path = std::env::temp_dir().join("shrimp-report-no-such-file.json");
        assert!(matches!(load(&path), Err(ReportError::Unreadable(_))));
    }

    #[test]
    fn a_smoke_sweep_renders_and_checks_no_band() {
        let report = build(&document(Scale::Smoke, |_, row| Some(row))).unwrap();
        assert!(report.text.contains("=== §4.5.3"));
        assert!(report.bands.is_empty());
        assert!(report.render_bands().contains("no bands checked"));
    }

    /// Drift between the matrix's ids and the rows the report asks for
    /// shows here first: the committed smoke baseline must render.
    #[test]
    fn the_committed_smoke_baseline_renders() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/baselines/smoke.json");
        let report = load(&path).unwrap();
        assert_eq!(report.scale, Scale::Smoke);
        for section in SECTIONS {
            assert!(report.text.contains(&format!("=== {section}")));
        }
    }
}
