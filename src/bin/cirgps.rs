//! `cirgps` — command-line front end for the CirGPS pipeline.
//!
//! ```text
//! cirgps gen      --kind ssram --preset tiny --seed 7 --out designs/
//! cirgps stats    --netlist designs/SSRAM.sp --top SSRAM
//! cirgps sample   --netlist designs/SSRAM.sp --top SSRAM --spf designs/SSRAM.spf
//! cirgps pretrain --netlist designs/SSRAM.sp --top SSRAM --spf designs/SSRAM.spf \
//!                 --epochs 30 --out pretrained.ckpt
//! cirgps finetune --model pretrained.ckpt --netlist t.sp --top T --spf t.spf \
//!                 --shots 8 --out finetuned.ckpt
//! cirgps eval     --model finetuned.ckpt --netlist t.sp --top T --spf t.spf
//! cirgps energy   --netlist designs/SSRAM.sp --top SSRAM --spf designs/SSRAM.spf --vectors 32
//! ```
//!
//! Every command is one row of [`COMMANDS`]: its flags, their defaults
//! and their help text are declared there once, and parsing, rejection,
//! typed reads and `cirgps help` all derive from that row.

use std::fs;
use std::net::TcpListener;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use cirgps::client::{Client, RetryPolicy};
use cirgps::datagen::emit::write_design_pair;
use cirgps::datagen::enumerate::{build_term, enumerate_terms, term_extract_seed};
use cirgps::datagen::{
    check_design, extract_parasitics, generate_with_parasitics, DesignKind, ExtractConfig, Family,
    SizePreset,
};
use cirgps::graph::{netlist_to_graph, CircuitGraph, GraphStats, XcSpec};
use cirgps::model::corpus::{CorpusDesign, CorpusSpec};
use cirgps::model::{
    evaluate_link, evaluate_regression, finetune_regression_with_progress, interrupt,
    prepare_link_dataset, sweep_pairs, train_resumable, write_atomic, CandidatePairs, CircuitGps,
    FinetuneMode, InferenceSession, LinkMetrics, ModelConfig, PreparedSample, RegMetrics,
    ResumableTrain, SweepConfig, SweepTask, Task, TrainConfig, TrainState, TRAIN_STATE_SECTION,
};
use cirgps::netlist::{Netlist, SpfFile, SpiceFile};
use cirgps::sample::{CapNormalizer, DatasetConfig, LinkDataset, SamplerConfig, XcNormalizer};
use cirgps::serve::{ServeConfig, Server};
use cirgps::spice::{net_capacitances, simulate_energy};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{}", usage(COMMANDS));
        return ExitCode::FAILURE;
    };
    let find = |name: &str| COMMANDS.iter().find(|c| c.name == name);
    let help = |cmds: &[Cmd]| {
        println!("{}", usage(cmds));
        Ok(())
    };
    // Help never flag-parses: `cirgps help gen` prints gen's section,
    // and so does `cirgps gen --help`, whatever else is on the line.
    let result = match (name.as_str(), args.get(1)) {
        ("--help" | "-h" | "help", None) => help(COMMANDS),
        ("--help" | "-h" | "help", Some(topic)) => match find(topic) {
            Some(cmd) => help(std::slice::from_ref(cmd)),
            None => Err(format!("unknown command {topic:?}\n{}", usage(COMMANDS))),
        },
        _ => match find(name) {
            Some(cmd) if args[1..].iter().any(|a| a == "--help") => help(std::slice::from_ref(cmd)),
            Some(cmd) => Args::parse(cmd, &args[1..]).and_then(|a| (cmd.run)(&a)),
            None => Err(format!("unknown command {name:?}\n{}", usage(COMMANDS))),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One `cirgps` subcommand: the single place its flags are declared.
struct Cmd {
    name: &'static str,
    /// The description paragraph `cirgps help` prints.
    about: &'static str,
    run: fn(&Args) -> Result<(), String>,
    flags: &'static [Flag],
}

/// One flag a command accepts.
struct Flag {
    name: &'static str,
    /// Value placeholder for help; empty for a presence flag, which
    /// takes no value.
    value: &'static str,
    help: &'static str,
    default: Fallback,
}

/// What a flag reads as when it is not given.
enum Fallback {
    /// Nothing: the command decides what absence means.
    Unset,
    /// The CLI's own default, returned by [`Args::get`].
    Cli(&'static str),
    /// A library config's default (`ServeConfig`, `ModelConfig`,
    /// `RetryPolicy`), rendered in help only: the command passes the
    /// struct's value to [`Args::value_or`], and a unit test pins the
    /// two together.
    Lib(&'static str),
}

/// A flag with no default; `value` is its help placeholder, empty for
/// a presence flag.
const fn flag(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value,
        help,
        default: Fallback::Unset,
    }
}

impl Flag {
    /// Sets the CLI-owned default.
    const fn or(self, default: &'static str) -> Flag {
        Flag {
            default: Fallback::Cli(default),
            ..self
        }
    }

    /// Records, for help, the default a library config supplies.
    const fn lib(self, default: &'static str) -> Flag {
        Flag {
            default: Fallback::Lib(default),
            ..self
        }
    }

    /// `--name VALUE`, as help shows it.
    fn usage(&self) -> String {
        format!("--{} {}", self.name, self.value)
            .trim_end()
            .to_string()
    }
}

const NETLIST: Flag = flag("netlist", "FILE.sp", "SPICE netlist");
const TOP: Flag = flag("top", "NAME", "top-level subcircuit to flatten");
const SPF: Flag = flag("spf", "FILE.spf", "parasitics of the same design");
const MODEL: Flag = flag("model", "FILE.ckpt", "checkpoint to load");
const PER_TYPE: Flag = flag("per-type", "N", "pairs sampled per coupling type").or("200");
const SEED: Flag = flag("seed", "N", "random seed").or("7");
const LR: Flag = flag("lr", "F", "peak learning rate").or("1e-3");
const EVAL_EVERY: Flag = flag("eval-every", "N", "held-out eval period; 0 = off").or("0");
const QUANTIZE: Flag = flag("quantize", "", "round weights to int8 grid on save");
const METRICS_OUT: Flag = flag("metrics-out", "FILE.json", "write a JSON training log");
const CKPT_OUT: Flag = flag("out", "FILE.ckpt", "checkpoint to write (required)");
const TASK: Flag = flag("task", "link|cap", "what to predict per pair").or("link");
const ADDR: Flag = flag("addr", "HOST:PORT", "daemon address").or("127.0.0.1:8321");

/// Seed of the parasitics of `eval --grammar` designs; stated in that
/// flag's help.
const EVAL_CORPUS_SEED: u64 = 7;

/// Every `cirgps` command, in help order.
const COMMANDS: &[Cmd] = &[
    Cmd {
        name: "gen",
        about: "Generate a synthetic AMS design; writes <NAME>.sp and <NAME>.spf. --kind is \
                required.",
        run: cmd_gen,
        flags: &[
            flag("kind", "KIND", "ssram|ultra8t|sandwich|clkgen|timing|array"),
            flag("preset", "P", "size preset: tiny|small|paper").or("tiny"),
            SEED,
            flag("out", "DIR", "output directory").or("."),
        ],
    },
    Cmd {
        name: "datagen",
        about: "Enumerate the composition grammar's designs whose size estimate (roughly \
                heterogeneous-graph nodes) falls in [--min-size, --max-size], in canonical \
                order, validity-filtered, and write them as <NAME>.sp + <NAME>.spf pairs like \
                `gen` (docs/datagen.md). --seed seeds parasitic extraction only; the output \
                bytes are identical for every --threads.",
        run: cmd_datagen,
        flags: &[
            flag("family", "F", "all|chain|tree|bus|fabric|array|sandwich").or("all"),
            SEED,
            flag("max-size", "S", "upper size-estimate bound").or("4000"),
            flag("min-size", "S", "lower size-estimate bound").or("0"),
            flag("count", "K", "stop after K designs; 0 = all").or("0"),
            flag("out", "DIR", "output directory").or("."),
            flag("threads", "N", "parallel builders").or("1"),
            flag("list", "", "list name/family/size, build nothing"),
        ],
    },
    Cmd {
        name: "stats",
        about: "Parse + flatten a SPICE netlist and print heterogeneous-graph statistics \
                (Table IV format) and the Table-I feature spec.",
        run: cmd_stats,
        flags: &[NETLIST, TOP],
    },
    Cmd {
        name: "sample",
        about: "Join SPF couplings, build the balanced link dataset with 1-hop enclosing \
                subgraphs, and print dataset statistics.",
        run: cmd_sample,
        flags: &[NETLIST, TOP, SPF, PER_TYPE],
    },
    Cmd {
        name: "pretrain",
        about: "Pre-train CircuitGPS on coupling link prediction, then write a self-describing \
                checkpoint to --out; its embedded model config spares later commands any \
                architecture flags (docs/checkpoint-format.md). --netlist/--top/--spf take \
                comma-separated lists aligned by position. --grammar \
                FAMILY[:MAX_SIZE[:COUNT[:MIN_SIZE]]] adds in-memory grammar designs seeded with \
                --seed and makes the file flags optional (`chain:900:4` = first 4 chain designs \
                under size 900). --checkpoint-every writes atomic resumable snapshots, rotating \
                the previous one to .bak; SIGINT/SIGTERM stops at the next epoch boundary with \
                a final one, and --resume with the same flags reproduces the uninterrupted run \
                (docs/robustness.md). --quantize rounds weights to their int8 grid before \
                saving; the file stays f32 (docs/simd-quant.md).",
        run: cmd_pretrain,
        flags: &[
            NETLIST,
            TOP,
            SPF,
            flag("grammar", "SPEC", "append grammar designs"),
            PER_TYPE,
            flag("epochs", "N", "training epochs").or("30"),
            flag("batch-size", "N", "minibatch size").or("32"),
            LR,
            SEED,
            flag("hidden-dim", "N", "hidden width").lib("32"),
            flag("layers", "N", "GPS layers").lib("3"),
            flag("heads", "N", "attention heads").lib("4"),
            flag("pe-dim", "N", "PE embedding width").lib("8"),
            flag("dropout", "F", "dropout probability").lib("0.1"),
            flag("holdout", "PCT", "percent held out for eval").or("10"),
            EVAL_EVERY,
            flag("checkpoint-every", "N", "snapshot period; 0 = off").or("0"),
            flag("resume", "", "continue the run snapshotted at --out"),
            QUANTIZE,
            METRICS_OUT,
            CKPT_OUT,
        ],
    },
    Cmd {
        name: "finetune",
        about: "Few-shot fine-tune a pre-trained checkpoint (--model, required) for capacitance \
                regression on a target design: --shots labeled positive pairs (required, >= 1), \
                spread evenly over the positives, train the regression head (backbone frozen \
                unless --unfreeze-all, the paper's few-shot recipe); the remaining labeled \
                pairs become the held-out eval set. --netlist/--top/--spf take comma-separated \
                lists aligned by position.",
        run: cmd_finetune,
        flags: &[
            MODEL,
            NETLIST,
            TOP,
            SPF,
            flag("shots", "N", "labeled pairs to fine-tune on"),
            flag("unfreeze-all", "", "also fine-tune encoders + GPS layers"),
            PER_TYPE,
            flag("epochs", "N", "fine-tuning epochs").or("50"),
            flag("batch-size", "N", "minibatch size").or("8"),
            LR,
            SEED,
            EVAL_EVERY,
            QUANTIZE,
            METRICS_OUT,
            CKPT_OUT,
        ],
    },
    Cmd {
        name: "eval",
        about: "Evaluate a checkpoint (--model, required) on the designs' sampled pair sets and \
                print one JSON object to stdout: link metrics (accuracy/F1/AUC) over all pairs \
                and/or regression metrics (MAE/RMSE/R2, normalized scale) over the labeled \
                positives. --netlist/--top/--spf take comma-separated lists aligned by \
                position; --grammar appends designs as in `pretrain`.",
        run: cmd_eval,
        flags: &[
            MODEL,
            NETLIST,
            TOP,
            SPF,
            flag("grammar", "SPEC", "append grammar designs (seed 7)"),
            flag("task", "link|cap|both", "metrics to report").or("both"),
            PER_TYPE,
        ],
    },
    Cmd {
        name: "predict",
        about: "Score the design's candidate coupling pairs with the batched tape-free \
                inference engine and print one JSON object per pair. Without --model a freshly \
                initialized default model gives structure-only smoke predictions. \
                CIRGPS_FORCE_BACKEND=scalar|avx2|avx512 pins the SIMD backend; the output is \
                bitwise-identical either way (docs/simd-quant.md).",
        run: cmd_predict,
        flags: &[
            NETLIST,
            TOP,
            SPF,
            TASK,
            flag("batch-size", "N", "samples per packed batch").or("32"),
            PER_TYPE,
            MODEL,
            flag("out", "FILE.json", "write JSON lines there"),
        ],
    },
    Cmd {
        name: "sweep",
        about: "Plan and execute a full-chip sweep: score *every* candidate pair of the design \
                (or the --pairs list: one `a,b` or `a b` node-id pair per line, `#` comments \
                allowed) as one batched job with shared subgraph extraction and neighborhood \
                deduplication, streaming results with memory bounded by --chunk (docs/sweep.md). \
                Each value equals what `cirgps predict` emits for that pair with the same model. \
                Prints planner statistics (pairs, dedup rate, µs/pair) to stderr.",
        run: cmd_sweep,
        flags: &[
            NETLIST,
            TOP,
            MODEL,
            TASK,
            flag("pairs", "FILE", "score only these pairs"),
            flag("per-node-cap", "N", "partners per anchor; 0 = all").or("0"),
            flag("max-pairs", "N", "stop after N pairs; 0 = all").or("0"),
            flag("chunk", "N", "pairs per planned window").or("4096"),
            flag("threads", "N", "forward-pass worker threads").or("1"),
            flag("format", "jsonl|csv", "output format").or("jsonl"),
            flag("out", "FILE", "write results there, not stdout"),
        ],
    },
    Cmd {
        name: "serve",
        about: "Run the long-lived inference daemon (docs/serving.md): caches stay warm and \
                concurrent HTTP queries are coalesced into packed batches by the dynamic \
                micro-batcher. Endpoints: GET /healthz, GET /metrics, POST /v1/predict, POST \
                /v1/sweep (chunked JSONL). Without --model a freshly initialized default model \
                is served. Limits answer 503 (queue, connections), 504 (request timeout), 413 \
                (body), 400 (headers) and 408 (slow ingress); SIGTERM/SIGINT drains gracefully \
                (docs/robustness.md).",
        run: cmd_serve,
        flags: &[
            NETLIST,
            TOP,
            MODEL,
            ADDR,
            flag("max-batch", "N", "flush a batch at N queries").lib("32"),
            flag("max-wait-us", "N", "flush a partial batch after N µs").lib("2000"),
            flag("workers", "N", "scheduler threads").lib("2"),
            flag("queue-cap", "N", "queue depth before 503").lib("1024"),
            flag("cache-cap", "N", "per-worker sample cache").lib("65536"),
            flag("drain-timeout-ms", "N", "graceful-drain deadline").lib("5000"),
            flag("request-timeout-ms", "N", "per-request deadline").lib("30000"),
            flag("max-body-bytes", "N", "request body limit").lib("8388608"),
            flag("max-headers", "N", "header-line limit").lib("64"),
            flag("idle-timeout-ms", "N", "keep-alive idle limit").lib("60000"),
            flag("ingress-timeout-ms", "N", "budget to read a request").lib("10000"),
            flag("max-conns", "N", "concurrent-connection cap").lib("256"),
        ],
    },
    Cmd {
        name: "client",
        about: "Query a running daemon through the retrying client: exponential backoff with \
                decorrelated jitter, Retry-After honoring, and a total deadline budget \
                (docs/robustness.md has the recipe). `--path /v1/sweep` streams the chunked \
                JSONL response to stdout as it arrives; other paths print the response body.",
        run: cmd_client,
        flags: &[
            ADDR,
            flag("method", "GET|POST", "request method").or("GET"),
            flag("path", "P", "request path").or("/healthz"),
            flag("body", "JSON", "inline request body"),
            flag("body-file", "FILE", "read the request body from a file"),
            flag("retries", "N", "attempts before giving up").lib("6"),
            flag("deadline-ms", "N", "budget across all attempts").lib("30000"),
            flag("seed", "N", "backoff jitter seed").or("24301"),
        ],
    },
    Cmd {
        name: "energy",
        about: "Run the switch-level simulator and report switching energy.",
        run: cmd_energy,
        flags: &[
            NETLIST,
            TOP,
            SPF,
            flag("vectors", "N", "random input vectors").or("32"),
            flag("vdd", "V", "supply voltage").or("0.9"),
            SEED,
        ],
    },
];

/// A command's flags as given, checked against its table rows.
struct Args {
    cmd: &'static Cmd,
    /// The value given for each of `cmd.flags`; `""` for a presence
    /// flag that was given.
    given: Vec<Option<String>>,
}

impl Args {
    /// Parses everything after the command name. Runs before any file
    /// I/O and rejects, naming the flag: an unknown flag, a presence
    /// flag given a value, a valued flag without one, and a repeat.
    fn parse(cmd: &'static Cmd, argv: &[String]) -> Result<Args, String> {
        let mut given = vec![None; cmd.flags.len()];
        let mut argv = argv.iter().peekable();
        while let Some(arg) = argv.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected positional argument {arg:?} (flags are --name value pairs)"
                ));
            };
            let Some(i) = cmd.flags.iter().position(|f| f.name == name) else {
                let expected: Vec<String> =
                    cmd.flags.iter().map(|f| format!("--{}", f.name)).collect();
                return Err(format!(
                    "unknown flag --{name} for `cirgps {}` (expected {})",
                    cmd.name,
                    expected.join(", ")
                ));
            };
            if given[i].is_some() {
                return Err(format!("--{name} is given more than once"));
            }
            let value = argv.next_if(|v| !v.starts_with("--"));
            given[i] = Some(match (cmd.flags[i].value, value) {
                ("", None) => String::new(),
                ("", Some(v)) => {
                    return Err(format!(
                        "--{name} is a presence flag and takes no value (got {v:?})"
                    ))
                }
                (_, Some(v)) => v.clone(),
                (placeholder, None) => {
                    return Err(format!("--{name} needs a value ({placeholder})"))
                }
            });
        }
        Ok(Args { cmd, given })
    }

    /// The row of `name` and the value given for it. Reading a flag the
    /// command does not declare is a bug in the command, not a user
    /// error.
    fn row(&self, name: &str) -> (&Flag, Option<&str>) {
        let cmd = self.cmd.name;
        let i = (self.cmd.flags.iter().position(|f| f.name == name))
            .unwrap_or_else(|| panic!("`cirgps {cmd}` reads undeclared flag --{name}"));
        (&self.cmd.flags[i], self.given[i].as_deref())
    }

    /// The flag's value as given, else its CLI-owned default.
    fn get(&self, name: &str) -> Option<&str> {
        match self.row(name) {
            (_, Some(v)) => Some(v),
            (flag, None) => match flag.default {
                Fallback::Cli(default) => Some(default),
                Fallback::Unset | Fallback::Lib(_) => None,
            },
        }
    }

    /// Whether the presence flag `name` was given.
    fn has(&self, name: &str) -> bool {
        self.row(name).1.is_some()
    }

    /// [`Args::get`], with absence an error naming the flag.
    fn text(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// [`Args::text`] parsed as `T`.
    fn value<T: FromStr>(&self, name: &str) -> Result<T, String> {
        let s = self.text(name)?;
        s.parse().map_err(|_| format!("bad --{name} {s:?}"))
    }

    /// The flag's value parsed as `T`, or `fallback` — a library
    /// config's default — when it is absent.
    fn value_or<T: FromStr>(&self, name: &str, fallback: T) -> Result<T, String> {
        match self.get(name) {
            Some(_) => self.value(name),
            None => Ok(fallback),
        }
    }
}

/// Help output width in columns.
const WIDTH: usize = 80;

/// Renders `cirgps help` for `cmds` (rows of [`COMMANDS`]): per command
/// a synopsis, its description and one line per flag with its default.
fn usage(cmds: &[Cmd]) -> String {
    let mut out = String::from("cirgps — few-shot parasitic prediction pipeline\n\nUSAGE:\n");
    for cmd in cmds {
        out.push_str(&format!("\n  cirgps {}", cmd.name));
        let synopsis = cmd.flags.iter().map(|f| format!("[{}]", f.usage()));
        wrap(&mut out, cmd.name.len() + 10, synopsis);
        out.push_str("      ");
        wrap(&mut out, 6, cmd.about.split_whitespace());
        for f in cmd.flags {
            let default = match f.default {
                Fallback::Cli(d) | Fallback::Lib(d) => format!(" (default {d})"),
                Fallback::Unset => String::new(),
            };
            out.push_str(&format!("        {:<23} {}{default}\n", f.usage(), f.help));
        }
    }
    out.pop();
    out
}

/// Appends `words` to the last line of `out`, breaking lines at
/// [`WIDTH`] onto continuation lines indented by `indent`, and ends
/// the line. A line that ends in a space takes the next word as is.
fn wrap<S: AsRef<str>>(out: &mut String, indent: usize, words: impl IntoIterator<Item = S>) {
    for word in words {
        let word = word.as_ref();
        let line = out.rsplit('\n').next().unwrap_or("");
        if !line.ends_with(' ') {
            if line.chars().count() + 1 + word.chars().count() > WIDTH {
                out.push('\n');
                out.push_str(&" ".repeat(indent));
            } else {
                out.push(' ');
            }
        }
        out.push_str(word);
    }
    out.push('\n');
}

fn design_kind(name: &str) -> Result<DesignKind, String> {
    Ok(match name {
        "ssram" => DesignKind::Ssram,
        "ultra8t" => DesignKind::Ultra8t,
        "sandwich" => DesignKind::SandwichRam,
        "clkgen" => DesignKind::DigitalClkGen,
        "timing" => DesignKind::TimingControl,
        "array" => DesignKind::Array128x32,
        other => return Err(format!("unknown design kind {other:?}")),
    })
}

fn preset(name: &str) -> Result<SizePreset, String> {
    Ok(match name {
        "tiny" => SizePreset::Tiny,
        "small" => SizePreset::Small,
        "paper" => SizePreset::Paper,
        other => return Err(format!("unknown preset {other:?}")),
    })
}

fn load_netlist(args: &Args) -> Result<Netlist, String> {
    let path = args.text("netlist")?;
    let top = args.text("top")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let file = SpiceFile::parse(&text).map_err(|e| e.to_string())?;
    file.flatten(top).map_err(|e| e.to_string())
}

fn load_spf(args: &Args) -> Result<SpfFile, String> {
    let path = args.text("spf")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    SpfFile::parse(&text).map_err(|e| e.to_string())
}

/// Enumerates a `--grammar` corpus in memory (no files involved); no
/// spec means no designs.
fn grammar_corpus(spec: Option<&str>, seed: u64) -> Result<Vec<CorpusDesign>, String> {
    let Some(spec) = spec else {
        return Ok(Vec::new());
    };
    let spec = CorpusSpec::parse(spec)?;
    let corpus = spec.load(seed);
    if corpus.len() < spec.count {
        return Err(format!(
            "--grammar window holds only {} design(s), asked for {} (widen the size bounds)",
            corpus.len(),
            spec.count
        ));
    }
    Ok(corpus)
}

/// Loads the `--netlist`/`--top`/`--spf` comma-separated design lists
/// (aligned by position) used by the training subcommands, followed by
/// the `grammar` corpus designs.
fn load_design_pairs(args: &Args, grammar: Vec<CorpusDesign>) -> Result<Vec<CorpusDesign>, String> {
    let split = |name: &str| -> Result<Vec<String>, String> {
        match args.get(name) {
            Some(list) => Ok(list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect()),
            None if !grammar.is_empty() => Ok(Vec::new()),
            None => Err(format!("--{name} is required (or use --grammar)")),
        }
    };
    let netlists = split("netlist")?;
    let tops = split("top")?;
    let spfs = split("spf")?;
    if netlists.is_empty() && grammar.is_empty() {
        return Err("--netlist lists no files".into());
    }
    if netlists.len() != tops.len() || netlists.len() != spfs.len() {
        return Err(format!(
            "--netlist/--top/--spf list lengths differ ({}/{}/{}); they align by position",
            netlists.len(),
            tops.len(),
            spfs.len()
        ));
    }
    let mut pairs = Vec::with_capacity(netlists.len() + grammar.len());
    for ((path, top), spf_path) in netlists.iter().zip(&tops).zip(&spfs) {
        let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let file = SpiceFile::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let netlist = file.flatten(top).map_err(|e| format!("{path}: {e}"))?;
        let text = fs::read_to_string(spf_path).map_err(|e| format!("reading {spf_path}: {e}"))?;
        let spf = SpfFile::parse(&text).map_err(|e| format!("{spf_path}: {e}"))?;
        let name = netlist.name.clone();
        pairs.push(CorpusDesign { name, netlist, spf });
    }
    pairs.extend(grammar);
    Ok(pairs)
}

/// Builds the pooled, prepared link dataset over every design pair: one
/// balanced `LinkDataset` per design, an `XcNormalizer` fitted across
/// *all* graphs (so circuit statistics share one scale), capacitance
/// targets encoded with the paper's log-range normalizer.
fn build_link_samples(
    pairs: &[CorpusDesign],
    per_type: usize,
    pe: cirgps::pe::PeKind,
) -> Result<(Vec<String>, Vec<PreparedSample>), String> {
    let mut names = Vec::with_capacity(pairs.len());
    let mut built: Vec<(CircuitGraph, LinkDataset)> = Vec::with_capacity(pairs.len());
    for pair in pairs {
        let (graph, map) = netlist_to_graph(&pair.netlist);
        let ds = LinkDataset::build(
            &pair.netlist.name,
            &graph,
            &pair.netlist,
            &map,
            &pair.spf,
            &DatasetConfig {
                max_per_type: per_type,
                ..Default::default()
            },
        );
        if ds.is_empty() {
            return Err(format!(
                "design {} produced no link samples (is the SPF empty?)",
                pair.netlist.name
            ));
        }
        names.push(pair.netlist.name.clone());
        built.push((graph, ds));
    }
    let graphs: Vec<&CircuitGraph> = built.iter().map(|(g, _)| g).collect();
    let xcn = XcNormalizer::fit(&graphs);
    let cap = CapNormalizer::paper_range();
    let mut samples = Vec::new();
    for (_, ds) in &built {
        samples.extend(prepare_link_dataset(ds, pe, &xcn, |c| cap.encode(c)));
    }
    Ok((names, samples))
}

/// Applies `--quantize` before a checkpoint export: rounds every
/// quantizable weight in place to its int8 grid, so the saved f32 file
/// holds exactly the weights every later command computes with.
fn apply_quantize_flag(args: &Args, model: &mut CircuitGps) {
    if args.has("quantize") {
        let n = model.store_mut().quantize_int8();
        eprintln!("rounded {n} weight tensors to their int8 grid for export (per-tensor scales)");
    }
}

/// Loads a checkpoint file via the self-describing container.
fn load_checkpoint_file(path: &str) -> Result<CircuitGps, String> {
    let f = fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    CircuitGps::load_checkpoint(std::io::BufReader::new(f))
        .map(|(model, _)| model)
        .map_err(|e| format!("loading checkpoint {path}: {e}"))
}

/// Serializes a checkpoint (optionally with a resumable-training-state
/// section) and writes it atomically + durably: no crash can leave a
/// half-written file at `path` (see `docs/robustness.md`).
fn save_checkpoint_bytes(
    model: &CircuitGps,
    state: Option<&TrainState>,
    path: &str,
) -> Result<(), String> {
    let mut bytes = Vec::new();
    let result = match state {
        Some(st) => model.save_checkpoint_with_sections(
            &mut bytes,
            &[(TRAIN_STATE_SECTION, &st.to_bytes()[..])],
        ),
        None => model.save_checkpoint(&mut bytes),
    };
    result.map_err(|e| format!("serializing checkpoint {path}: {e}"))?;
    write_atomic(Path::new(path), &bytes).map_err(|e| format!("writing checkpoint {path}: {e}"))
}

fn save_checkpoint_file(model: &CircuitGps, path: &str) -> Result<(), String> {
    save_checkpoint_bytes(model, None, path)
}

/// Writes a rolling training snapshot: the previous snapshot at `path`
/// is first rotated to `path.bak`, so even an injected fault *inside*
/// the new write (torn temp file, kill before rename) leaves the last
/// good snapshot loadable — `--resume` falls back to `.bak`.
fn save_snapshot(model: &CircuitGps, state: &TrainState, path: &str) -> Result<(), String> {
    let bak = format!("{path}.bak");
    if fs::metadata(path).is_ok() {
        fs::rename(path, &bak).map_err(|e| format!("rotating {path} -> {bak}: {e}"))?;
    }
    save_checkpoint_bytes(model, Some(state), path)
}

/// Loads the checkpoint `--resume` points at, falling back to the
/// `.bak` rotation sibling when the primary is missing or corrupt (the
/// "crashed mid-snapshot" case the chaos suite exercises).
fn load_resume_checkpoint(path: &str) -> Result<cirgps::model::Checkpoint, String> {
    let try_load = |p: &str| -> Result<cirgps::model::Checkpoint, String> {
        let f = fs::File::open(p).map_err(|e| format!("reading {p}: {e}"))?;
        CircuitGps::load_checkpoint_full(std::io::BufReader::new(f))
            .map_err(|e| format!("loading checkpoint {p}: {e}"))
    };
    match try_load(path) {
        Ok(ck) => Ok(ck),
        Err(primary) => {
            let bak = format!("{path}.bak");
            eprintln!("warning: {primary}; trying rotation sibling {bak}");
            try_load(&bak).map_err(|fallback| format!("{primary}; {fallback}"))
        }
    }
}

/// Interleaved holdout split: `pct` percent of samples (the dataset is
/// already shuffled at construction), spread evenly over the sequence
/// by Bresenham selection — exact for any `pct`, not just divisors of
/// 100. Deterministic, so reruns agree.
fn split_holdout(
    samples: Vec<PreparedSample>,
    pct: usize,
) -> (Vec<PreparedSample>, Vec<PreparedSample>) {
    if pct == 0 || samples.len() < 2 {
        return (samples, Vec::new());
    }
    let pct = pct.clamp(1, 50);
    let mut train = Vec::with_capacity(samples.len());
    let mut holdout = Vec::with_capacity(samples.len() * pct / 100 + 1);
    for (i, s) in samples.into_iter().enumerate() {
        if (i * pct) % 100 < pct {
            holdout.push(s);
        } else {
            train.push(s);
        }
    }
    (train, holdout)
}

fn json_link(m: &LinkMetrics) -> String {
    format!(
        "{{\"accuracy\":{:.6},\"f1\":{:.6},\"auc\":{:.6}}}",
        m.accuracy, m.f1, m.auc
    )
}

fn json_reg(m: &RegMetrics) -> String {
    format!(
        "{{\"mae\":{:.6},\"rmse\":{:.6},\"r2\":{:.6}}}",
        m.mae, m.rmse, m.r2
    )
}

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("{s:?}")).collect();
    format!("[{}]", quoted.join(","))
}

/// Assembles and optionally writes the `--metrics-out` JSON training
/// log: per-epoch loss records, periodic eval records, final metrics.
fn write_metrics_log(
    args: &Args,
    command: &str,
    designs: &[String],
    epoch_lines: &[String],
    eval_lines: &[String],
    final_json: &str,
    seconds: f64,
) -> Result<(), String> {
    let Some(path) = args.get("metrics-out") else {
        return Ok(());
    };
    let log = format!(
        "{{\"command\":{command:?},\"designs\":{},\"epochs\":[{}],\"eval\":[{}],\
         \"final\":{final_json},\"seconds\":{seconds:.3}}}\n",
        json_str_list(designs),
        epoch_lines.join(","),
        eval_lines.join(","),
    );
    // Atomic + durable: a crash mid-write must not leave torn JSON for
    // downstream tooling to choke on.
    write_atomic(Path::new(path), log.as_bytes()).map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_pretrain(args: &Args) -> Result<(), String> {
    let out = args.text("out")?;
    let checkpoint_every: usize = args.value("checkpoint-every")?;
    let resume = args.has("resume");
    let per_type = args.value("per-type")?;
    let holdout_pct = args.value("holdout")?;
    if holdout_pct > 50 {
        return Err(format!(
            "--holdout {holdout_pct} must be 0..=50 (percent of samples held out)"
        ));
    }
    let eval_every: usize = args.value("eval-every")?;
    let run_seed = args.value("seed")?;

    let defaults = ModelConfig::default();
    let mc = ModelConfig {
        hidden_dim: args.value_or("hidden-dim", defaults.hidden_dim)?,
        num_layers: args.value_or("layers", defaults.num_layers)?,
        heads: args.value_or("heads", defaults.heads)?,
        pe_dim: args.value_or("pe-dim", defaults.pe_dim)?,
        dropout: args.value_or("dropout", defaults.dropout)?,
        seed: run_seed,
        ..defaults
    };
    mc.check()
        .map_err(|e| format!("invalid model config: {e}"))?;
    let tc = TrainConfig {
        epochs: args.value("epochs")?,
        batch_size: args.value("batch-size")?,
        lr: args.value("lr")?,
        seed: run_seed,
        ..Default::default()
    };
    if tc.epochs == 0 || tc.batch_size == 0 {
        return Err("--epochs and --batch-size must be positive".into());
    }

    // `--resume` restores the model AND the training state from the
    // snapshot at --out (falling back to its .bak rotation sibling); a
    // fresh run builds the model from the architecture flags. The data
    // flags must match the interrupted run too — the dataset build is
    // deterministic, so identical flags give an identical sample set.
    let (mut model, resume_state) = if resume {
        let ck = load_resume_checkpoint(out)?;
        let Some(bytes) = ck.section(TRAIN_STATE_SECTION) else {
            return Err(format!(
                "{out} carries no training state — it is a completed checkpoint, not an \
                 interrupted-run snapshot; nothing to resume"
            ));
        };
        let st = TrainState::from_bytes(bytes).map_err(|e| format!("{out}: {e}"))?;
        st.check_resume(Task::LinkPrediction, &tc)
            .map_err(|e| format!("cannot resume from {out}: {e}"))?;
        if st.epochs_done >= tc.epochs {
            return Err(format!(
                "{out} already has all {} epochs done; nothing to resume (raise --epochs only \
                 by restarting — the cosine schedule horizon is part of the run)",
                tc.epochs
            ));
        }
        eprintln!(
            "resuming {out} at epoch {}/{} (model config comes from the snapshot)",
            st.epochs_done, tc.epochs
        );
        (ck.model, Some(st))
    } else {
        (CircuitGps::new(mc), None)
    };

    let pairs = load_design_pairs(args, grammar_corpus(args.get("grammar"), run_seed)?)?;
    let (designs, samples) = build_link_samples(&pairs, per_type, model.cfg.pe)?;
    let (train_set, holdout) = split_holdout(samples, holdout_pct);
    eprintln!(
        "pretrain: {} samples over {} design(s) ({} held out), model {}d x {}L x {}h ({} params)",
        train_set.len() + holdout.len(),
        designs.len(),
        holdout.len(),
        model.cfg.hidden_dim,
        model.cfg.num_layers,
        model.cfg.heads,
        model.num_params()
    );
    // Restored epochs re-enter the metrics log so the record always
    // spans epoch 1..last (loss only; wall-clock detail lived in the
    // interrupted process).
    let mut epoch_lines: Vec<String> = resume_state
        .as_ref()
        .map(|st| {
            st.epoch_losses
                .iter()
                .enumerate()
                .map(|(i, l)| format!("{{\"epoch\":{},\"loss\":{l:.6}}}", i + 1))
                .collect()
        })
        .unwrap_or_default();
    let mut eval_lines = Vec::new();
    interrupt::install();
    let outcome = train_resumable(
        &mut model,
        &train_set,
        &tc,
        ResumableTrain {
            task: Task::LinkPrediction,
            resume: resume_state,
            stop: Some(interrupt::flag()),
        },
        &mut |m, p| {
            eprintln!(
                "epoch {:>3}/{}: loss {:.4} (lr {:.2e}, {:.1}s)",
                p.epoch, p.epochs, p.loss, p.lr, p.seconds
            );
            epoch_lines.push(format!(
                "{{\"epoch\":{},\"loss\":{:.6},\"lr\":{:.6e},\"seconds\":{:.3}}}",
                p.epoch, p.loss, p.lr, p.seconds
            ));
            if eval_every > 0 && p.epoch % eval_every == 0 && !holdout.is_empty() {
                let lm = evaluate_link(m, &holdout);
                eprintln!(
                    "  holdout: accuracy {:.3}, F1 {:.3}, AUC {:.3}",
                    lm.accuracy, lm.f1, lm.auc
                );
                eval_lines.push(format!(
                    "{{\"epoch\":{},\"accuracy\":{:.6},\"f1\":{:.6},\"auc\":{:.6}}}",
                    p.epoch, lm.accuracy, lm.f1, lm.auc
                ));
            }
        },
        &mut |m, st| {
            if checkpoint_every > 0
                && st.epochs_done < tc.epochs
                && st.epochs_done % checkpoint_every == 0
            {
                match save_snapshot(m, st, out) {
                    Ok(()) => {
                        eprintln!("snapshot: {out} at epoch {}/{}", st.epochs_done, tc.epochs)
                    }
                    // A failed snapshot must not kill a healthy training
                    // run — the next interval (or the final write) retries.
                    Err(e) => {
                        eprintln!("warning: snapshot at epoch {} failed: {e}", st.epochs_done)
                    }
                }
            }
        },
    );
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            // The rolling snapshot written at the last epoch boundary is
            // untouched — after fixing the divergence (data, lr), resume
            // from it with `--resume`.
            return Err(format!(
                "training aborted: {e}; the most recent rolling snapshot is still \
                 valid — fix the run and continue with `cirgps pretrain --resume`"
            ));
        }
    };
    let hist = outcome.history;

    if outcome.interrupted {
        save_snapshot(&model, &outcome.state, out)?;
        println!(
            "interrupted: wrote resumable snapshot {out} at epoch {}/{} — continue with \
             `cirgps pretrain --resume` and the same flags",
            outcome.state.epochs_done, tc.epochs
        );
        return Ok(());
    }

    let (final_set, final_label) = if holdout.is_empty() {
        (&train_set, "train")
    } else {
        (&holdout, "holdout")
    };
    let lm = evaluate_link(&model, final_set);
    eprintln!(
        "final {final_label} metrics: accuracy {:.3}, F1 {:.3}, AUC {:.3}",
        lm.accuracy, lm.f1, lm.auc
    );
    write_metrics_log(
        args,
        "pretrain",
        &designs,
        &epoch_lines,
        &eval_lines,
        &json_link(&lm),
        hist.seconds,
    )?;
    apply_quantize_flag(args, &mut model);
    save_checkpoint_file(&model, out)?;
    println!(
        "wrote {out}: {} trainable params, {} epochs, final loss {:.4}, {final_label} AUC {:.3}",
        model.num_params(),
        hist.epoch_losses.len(),
        hist.epoch_losses.last().copied().unwrap_or(f32::NAN),
        lm.auc
    );
    Ok(())
}

fn cmd_finetune(args: &Args) -> Result<(), String> {
    let out = args.text("out")?;
    let model_path = args.text("model")?;
    let shots = args.value("shots")?;
    if shots == 0 {
        return Err("--shots must be >= 1 (labeled pairs to fine-tune on)".into());
    }
    let unfreeze_all = args.has("unfreeze-all");
    let per_type = args.value("per-type")?;
    let eval_every: usize = args.value("eval-every")?;
    let tc = TrainConfig {
        epochs: args.value("epochs")?,
        batch_size: args.value("batch-size")?,
        lr: args.value("lr")?,
        seed: args.value("seed")?,
        ..Default::default()
    };
    if tc.epochs == 0 || tc.batch_size == 0 {
        return Err("--epochs and --batch-size must be positive".into());
    }

    let mut model = load_checkpoint_file(model_path)?;
    let pairs = load_design_pairs(args, Vec::new())?;
    let (designs, samples) = build_link_samples(&pairs, per_type, model.cfg.pe)?;

    // Few-shot selection: only positives carry capacitance labels. The
    // shots are spread evenly over the (already shuffled) positive set;
    // the rest become the held-out evaluation set.
    let positives: Vec<PreparedSample> = samples.into_iter().filter(|s| s.label > 0.5).collect();
    if shots >= positives.len() {
        return Err(format!(
            "--shots {shots} must be < the {} labeled positive pairs (some must remain held \
             out for evaluation; raise --per-type for more)",
            positives.len()
        ));
    }
    let stride = positives.len() / shots;
    let mut shot_set = Vec::with_capacity(shots);
    let mut eval_set = Vec::with_capacity(positives.len() - shots);
    for (i, s) in positives.into_iter().enumerate() {
        if i % stride == 0 && shot_set.len() < shots {
            shot_set.push(s);
        } else {
            eval_set.push(s);
        }
    }
    let mode = if unfreeze_all {
        FinetuneMode::All
    } else {
        FinetuneMode::HeadOnly
    };
    eprintln!(
        "finetune: {} shots / {} held-out labeled pairs, backbone {}",
        shot_set.len(),
        eval_set.len(),
        if unfreeze_all { "unfrozen" } else { "frozen" }
    );

    let mut epoch_lines = Vec::new();
    let mut eval_lines = Vec::new();
    let hist = finetune_regression_with_progress(&mut model, &shot_set, mode, &tc, &mut |m, p| {
        eprintln!(
            "epoch {:>3}/{}: loss {:.4} (lr {:.2e}, {:.1}s)",
            p.epoch, p.epochs, p.loss, p.lr, p.seconds
        );
        epoch_lines.push(format!(
            "{{\"epoch\":{},\"loss\":{:.6},\"lr\":{:.6e},\"seconds\":{:.3}}}",
            p.epoch, p.loss, p.lr, p.seconds
        ));
        if eval_every > 0 && p.epoch % eval_every == 0 {
            let rm = evaluate_regression(m, &eval_set);
            eprintln!(
                "  holdout: MAE {:.4}, RMSE {:.4}, R2 {:.3}",
                rm.mae, rm.rmse, rm.r2
            );
            eval_lines.push(format!(
                "{{\"epoch\":{},\"mae\":{:.6},\"rmse\":{:.6},\"r2\":{:.6}}}",
                p.epoch, rm.mae, rm.rmse, rm.r2
            ));
        }
    })
    .map_err(|e| format!("training aborted: {e}"))?;

    let rm = evaluate_regression(&model, &eval_set);
    eprintln!(
        "final holdout metrics (normalized scale): MAE {:.4}, RMSE {:.4}, R2 {:.3}",
        rm.mae, rm.rmse, rm.r2
    );
    write_metrics_log(
        args,
        "finetune",
        &designs,
        &epoch_lines,
        &eval_lines,
        &json_reg(&rm),
        hist.seconds,
    )?;
    apply_quantize_flag(args, &mut model);
    save_checkpoint_file(&model, out)?;
    println!(
        "wrote {out}: fine-tuned on {} shots ({} mode), holdout MAE {:.4}",
        shot_set.len(),
        if unfreeze_all { "all" } else { "head-only" },
        rm.mae
    );
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let model_path = args.text("model")?;
    let per_type = args.value("per-type")?;
    let task = args.text("task")?;
    if !matches!(task, "link" | "cap" | "both") {
        return Err(format!(
            "unknown --task {task:?} (expected link, cap or both)"
        ));
    }
    let model = load_checkpoint_file(model_path)?;
    let grammar = grammar_corpus(args.get("grammar"), EVAL_CORPUS_SEED)?;
    let pairs = load_design_pairs(args, grammar)?;
    let (designs, samples) = build_link_samples(&pairs, per_type, model.cfg.pe)?;
    let positives: Vec<PreparedSample> =
        samples.iter().filter(|s| s.label > 0.5).cloned().collect();

    let mut fields = vec![
        format!("\"designs\":{}", json_str_list(&designs)),
        format!("\"samples\":{}", samples.len()),
        format!("\"positives\":{}", positives.len()),
    ];
    if matches!(task, "link" | "both") {
        let lm = evaluate_link(&model, &samples);
        fields.push(format!("\"link\":{}", json_link(&lm)));
    }
    if matches!(task, "cap" | "both") {
        if positives.is_empty() {
            return Err("no labeled positive pairs to evaluate regression on".into());
        }
        let rm = evaluate_regression(&model, &positives);
        fields.push(format!("\"reg\":{}", json_reg(&rm)));
    }
    println!("{{{}}}", fields.join(","));
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let kind = design_kind(args.text("kind")?)?;
    let out_dir = Path::new(args.text("out")?);
    let (design, spf) =
        generate_with_parasitics(kind, preset(args.text("preset")?)?, args.value("seed")?)
            .map_err(|e| e.to_string())?;
    let (sp_path, spf_path) =
        write_design_pair(out_dir, &design, &spf).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} devices flattened) and {} ({} ground + {} coupling caps)",
        sp_path.display(),
        design.netlist.num_devices(),
        spf_path.display(),
        spf.ground_caps.len(),
        spf.coupling_caps.len()
    );
    Ok(())
}

fn cmd_datagen(args: &Args) -> Result<(), String> {
    let family = match args.text("family")? {
        "all" => None,
        name => Some(Family::parse(name).ok_or_else(|| {
            format!("unknown --family {name:?} (expected all, chain, tree, bus, fabric, array or sandwich)")
        })?),
    };
    let run_seed = args.value("seed")?;
    let max_size: u64 = args.value("max-size")?;
    let min_size: u64 = args.value("min-size")?;
    let count: usize = args.value("count")?;
    let threads: usize = args.value("threads")?;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }

    let mut terms = enumerate_terms(family, min_size, max_size);
    if count > 0 {
        terms.truncate(count);
    }
    if terms.is_empty() {
        return Err(format!(
            "no designs in the size window [{min_size}, {max_size}]"
        ));
    }
    if args.has("list") {
        for t in &terms {
            println!("{}\t{}\t{}", t.name(), t.family().name(), t.size_estimate());
        }
        eprintln!("{} designs in the window", terms.len());
        return Ok(());
    }

    let out_dir = Path::new(args.text("out")?);
    let start = std::time::Instant::now();

    // Work-stealing over the canonically sorted term list. Every design's
    // bytes are a pure function of (term, seed), so thread count only
    // decides who builds what — never what gets built. Per-design report
    // lines are collected and re-sorted by term index so stdout is also
    // byte-identical across --threads.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let lines = std::sync::Mutex::new(Vec::<(usize, String)>::new());
    let skipped = std::sync::atomic::AtomicUsize::new(0);
    let failure = std::sync::Mutex::new(None::<String>);
    std::thread::scope(|s| {
        for _ in 0..threads.min(terms.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(term) = terms.get(i) else { return };
                if failure.lock().unwrap().is_some() {
                    return;
                }
                let design = match build_term(term, run_seed) {
                    Ok(d) => d,
                    Err(e) => {
                        *failure.lock().unwrap() = Some(format!("building {}: {e}", term.name()));
                        return;
                    }
                };
                if let Err(violations) = check_design(&design) {
                    skipped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let mut lock = lines.lock().unwrap();
                    lock.push((i, format!("{}: SKIPPED ({})", term.name(), violations[0])));
                    continue;
                }
                let spf = extract_parasitics(
                    &design,
                    &ExtractConfig {
                        seed: term_extract_seed(run_seed, term),
                        ..Default::default()
                    },
                );
                if let Err(e) = write_design_pair(out_dir, &design, &spf) {
                    *failure.lock().unwrap() = Some(format!("writing {}: {e}", term.name()));
                    return;
                }
                let line = format!(
                    "{}\t{}\test {}\t{} devices\t{} + {} caps",
                    term.name(),
                    term.family().name(),
                    term.size_estimate(),
                    design.netlist.num_devices(),
                    spf.ground_caps.len(),
                    spf.coupling_caps.len()
                );
                lines.lock().unwrap().push((i, line));
            });
        }
    });
    if let Some(e) = failure.into_inner().unwrap() {
        return Err(e);
    }
    let mut lines = lines.into_inner().unwrap();
    lines.sort_unstable_by_key(|(i, _)| *i);
    for (_, line) in &lines {
        println!("{line}");
    }
    let skipped = skipped.into_inner();
    let written = lines.len() - skipped;
    let secs = start.elapsed().as_secs_f64();
    eprintln!(
        "wrote {written} design pairs to {} in {secs:.2}s ({:.1} designs/s), {skipped} skipped invalid",
        out_dir.display(),
        written as f64 / secs.max(1e-9),
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let (graph, _) = netlist_to_graph(&netlist);
    println!("{}", GraphStats::of(&netlist.name, &graph));
    println!("transistors: {}", netlist.transistor_count());
    let e = graph.edge_type_counts();
    println!("edges: {} device-pin, {} net-pin", e[0], e[1]);
    println!("\nTable-I circuit statistics (XC) dimensions:");
    for ty in [
        cirgps::graph::NodeType::Net,
        cirgps::graph::NodeType::Device,
        cirgps::graph::NodeType::Pin,
    ] {
        println!("  {ty} nodes:");
        for (i, d) in XcSpec::dims(ty).iter().enumerate() {
            println!("    [{i:2}] {d}");
        }
    }
    Ok(())
}

fn cmd_sample(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let spf = load_spf(args)?;
    let per_type: usize = args.value("per-type")?;
    let (graph, map) = netlist_to_graph(&netlist);
    let ds = LinkDataset::build(
        &netlist.name,
        &graph,
        &netlist,
        &map,
        &spf,
        &DatasetConfig {
            max_per_type: per_type,
            ..Default::default()
        },
    );
    println!("design {}: {} samples", ds.design, ds.len());
    println!(
        "raw positive couplings: {} p2n, {} p2p, {} n2n",
        ds.raw_counts[0], ds.raw_counts[1], ds.raw_counts[2]
    );
    println!(
        "mean enclosing subgraph: {:.1} nodes, {:.1} edges",
        ds.mean_subgraph_nodes, ds.mean_subgraph_edges
    );
    let pos = ds.samples.iter().filter(|s| s.link.label > 0.5).count();
    println!("balance: {} positive / {} negative", pos, ds.len() - pos);
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let spf = load_spf(args)?;
    let per_type: usize = args.value("per-type")?;
    let batch_size: usize = args.value("batch-size")?;
    if batch_size == 0 {
        return Err("--batch-size must be positive".into());
    }
    let task = args.text("task")?;
    if !matches!(task, "link" | "cap") {
        return Err(format!("unknown --task {task:?} (expected link or cap)"));
    }

    let (graph, map) = netlist_to_graph(&netlist);
    let ds = LinkDataset::build(
        &netlist.name,
        &graph,
        &netlist,
        &map,
        &spf,
        &DatasetConfig {
            max_per_type: per_type,
            ..Default::default()
        },
    );

    let model = match args.get("model") {
        Some(path) => load_checkpoint_file(path)?,
        None => CircuitGps::new(ModelConfig::default()),
    };
    let xcn = XcNormalizer::fit(&[&graph]);
    let mut session = InferenceSession::new(
        model,
        xcn,
        &graph,
        SamplerConfig {
            hops: 1,
            max_nodes: 2048,
        },
    )
    .with_batch_size(batch_size);

    // The session re-extracts each pair's subgraph from the *plain*
    // graph rather than reusing the dataset's: `LinkDataset::build`
    // samples from an augmented graph with every candidate coupling
    // injected as an edge (the training-time convention), which would
    // leak the candidate structure into a pure inference query.
    let pairs: Vec<(u32, u32)> = ds.samples.iter().map(|s| (s.link.a, s.link.b)).collect();
    let preds = match task {
        "link" => session.predict_links(&pairs),
        _ => session.predict_couplings(&pairs),
    };

    let cap_norm = CapNormalizer::paper_range();
    let mut lines = String::new();
    for (s, &p) in ds.samples.iter().zip(&preds) {
        let extra = if task == "cap" {
            format!(",\"cap_pred_f\":{:.4e}", cap_norm.decode(p))
        } else {
            String::new()
        };
        lines.push_str(&format!(
            "{{\"a\":{},\"b\":{},\"label\":{},\"{}\":{:.6}{}}}\n",
            s.link.a,
            s.link.b,
            s.link.label,
            if task == "link" { "prob" } else { "cap_norm" },
            p,
            extra
        ));
    }
    // Atomic + durable, like every other file the CLI writes whole: a
    // crash mid-write must not leave a torn prediction file.
    match args.get("out") {
        Some(path) => write_atomic(Path::new(path), lines.as_bytes())
            .map_err(|e| format!("writing {path}: {e}"))?,
        None => print!("{lines}"),
    }
    let (hits, misses) = session.cache_stats();
    eprintln!(
        "predicted {} pairs (task {task}, batch {batch_size}; sample cache {hits} hits / {misses} misses)",
        preds.len()
    );
    Ok(())
}

/// Parses a `--pairs` file: one pair per line, `a,b` or `a b`, with
/// blank lines and `#` comments skipped. Validates ids against `graph`.
fn parse_pairs_file(path: &str, graph: &CircuitGraph) -> Result<Vec<(u32, u32)>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let n = graph.num_nodes() as u32;
    let mut pairs = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|s| !s.is_empty());
        let parse = |tok: Option<&str>| -> Result<u32, String> {
            tok.ok_or_else(|| format!("{path}:{}: expected two node ids", ln + 1))?
                .parse()
                .map_err(|_| format!("{path}:{}: bad node id in {line:?}", ln + 1))
        };
        let a = parse(it.next())?;
        let b = parse(it.next())?;
        if it.next().is_some() {
            return Err(format!("{path}:{}: expected exactly two node ids", ln + 1));
        }
        if a == b {
            return Err(format!("{path}:{}: pair anchors must differ", ln + 1));
        }
        if a >= n || b >= n {
            return Err(format!(
                "{path}:{}: node id out of range (graph has {n} nodes)",
                ln + 1
            ));
        }
        pairs.push((a, b));
    }
    if pairs.is_empty() {
        return Err(format!("{path} lists no pairs"));
    }
    Ok(pairs)
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let task = match args.text("task")? {
        "link" => SweepTask::Link,
        "cap" => SweepTask::Coupling,
        other => return Err(format!("unknown --task {other:?} (expected link or cap)")),
    };
    let format = args.text("format")?;
    if !matches!(format, "jsonl" | "csv") {
        return Err(format!(
            "unknown --format {format:?} (expected jsonl or csv)"
        ));
    }
    let chunk: usize = args.value("chunk")?;
    if chunk == 0 {
        return Err("--chunk must be positive".into());
    }
    let threads: usize = args.value("threads")?;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let per_node_cap: usize = args.value("per-node-cap")?;
    let max_pairs: usize = args.value("max-pairs")?;

    let (graph, _map) = netlist_to_graph(&netlist);
    let model = match args.get("model") {
        Some(path) => load_checkpoint_file(path)?,
        None => CircuitGps::new(ModelConfig::default()),
    };
    // Same normalization and extraction parameters as `cirgps predict`
    // over the *plain* graph — the bitwise parity contract depends on
    // matching its inputs exactly.
    let xcn = XcNormalizer::fit(&[&graph]);
    let cfg = SweepConfig {
        task,
        sampler: SamplerConfig {
            hops: 1,
            max_nodes: 2048,
        },
        chunk,
        threads,
    };

    let explicit = match args.get("pairs") {
        Some(path) => Some(parse_pairs_file(path, &graph)?),
        None => None,
    };

    use std::io::Write as _;
    let mut writer: Box<dyn std::io::Write> = match args.get("out") {
        Some(path) => Box::new(std::io::BufWriter::new(
            fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
        )),
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };
    let cap_norm = CapNormalizer::paper_range();
    if format == "csv" {
        let header = match task {
            SweepTask::Link => "a,b,prob\n",
            SweepTask::Coupling => "a,b,cap_norm,cap_pred_f\n",
        };
        writer
            .write_all(header.as_bytes())
            .map_err(|e| format!("writing output: {e}"))?;
    }

    // Streaming writer: one formatted block per planned window, flushed
    // before the next window starts, so output memory stays bounded by
    // the window too.
    let mut io_err: Option<String> = None;
    let start = std::time::Instant::now();
    let mut emit = |pairs: &[(u32, u32)], values: &[f32]| -> bool {
        let mut block = String::with_capacity(pairs.len() * 40);
        for (&(a, b), &p) in pairs.iter().zip(values) {
            match (task, format) {
                (SweepTask::Link, "jsonl") => {
                    block.push_str(&format!("{{\"a\":{a},\"b\":{b},\"prob\":{p:.6}}}\n"));
                }
                (SweepTask::Coupling, "jsonl") => {
                    block.push_str(&format!(
                        "{{\"a\":{a},\"b\":{b},\"cap_norm\":{p:.6},\"cap_pred_f\":{:.4e}}}\n",
                        cap_norm.decode(p)
                    ));
                }
                (SweepTask::Link, _) => block.push_str(&format!("{a},{b},{p:.6}\n")),
                (SweepTask::Coupling, _) => {
                    block.push_str(&format!("{a},{b},{p:.6},{:.4e}\n", cap_norm.decode(p)));
                }
            }
        }
        let result = writer
            .write_all(block.as_bytes())
            .and_then(|()| writer.flush());
        match result {
            Ok(()) => true,
            Err(e) => {
                io_err = Some(format!("writing output: {e}"));
                false
            }
        }
    };

    let stats = match explicit {
        Some(pairs) => sweep_pairs(&model, &xcn, &graph, pairs, &cfg, &mut emit),
        None => sweep_pairs(
            &model,
            &xcn,
            &graph,
            CandidatePairs::new(&graph, per_node_cap, max_pairs),
            &cfg,
            &mut emit,
        ),
    };
    if let Some(e) = io_err {
        return Err(e);
    }
    if stats.pairs == 0 {
        return Err("no candidate pairs to sweep (empty enumeration?)".into());
    }

    let elapsed = start.elapsed();
    let us_per_pair = elapsed.as_micros() as f64 / stats.pairs as f64;
    eprintln!(
        "swept {} pairs in {} windows of {} ({} unique forwards, {} dedup hits = {:.1}%); \
         peak resident {} pairs; {:.2}s total, {:.1}µs/pair amortized",
        stats.pairs,
        stats.chunks,
        chunk,
        stats.unique_forwards,
        stats.dedup_hits,
        100.0 * stats.dedup_hits as f64 / stats.pairs as f64,
        stats.peak_resident,
        elapsed.as_secs_f64(),
        us_per_pair
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let defaults = ServeConfig::default();
    let ms = |name: &str, fallback: Duration| -> Result<Duration, String> {
        Ok(Duration::from_millis(
            args.value_or(name, fallback.as_millis() as u64)?,
        ))
    };
    let max_wait_us = args.value_or("max-wait-us", defaults.max_wait.as_micros() as u64)?;
    let cfg = ServeConfig {
        max_batch: args.value_or("max-batch", defaults.max_batch)?,
        max_wait: Duration::from_micros(max_wait_us),
        workers: args.value_or("workers", defaults.workers)?,
        queue_capacity: args.value_or("queue-cap", defaults.queue_capacity)?,
        cache_capacity: args.value_or("cache-cap", defaults.cache_capacity)?,
        drain_timeout: ms("drain-timeout-ms", defaults.drain_timeout)?,
        request_timeout: ms("request-timeout-ms", defaults.request_timeout)?,
        max_body_bytes: args.value_or("max-body-bytes", defaults.max_body_bytes)?,
        max_headers: args.value_or("max-headers", defaults.max_headers)?,
        idle_timeout: ms("idle-timeout-ms", defaults.idle_timeout)?,
        ingress_timeout: ms("ingress-timeout-ms", defaults.ingress_timeout)?,
        max_connections: args.value_or("max-conns", defaults.max_connections)?,
        ..defaults
    };
    let (max_batch, workers) = (cfg.max_batch, cfg.workers);
    if cfg.request_timeout.is_zero() {
        return Err("--request-timeout-ms must be positive".into());
    }
    if cfg.max_body_bytes == 0 || cfg.max_headers == 0 {
        return Err("--max-body-bytes and --max-headers must be positive".into());
    }
    if cfg.idle_timeout.is_zero() || cfg.ingress_timeout.is_zero() {
        return Err("--idle-timeout-ms and --ingress-timeout-ms must be positive".into());
    }
    if cfg.max_connections == 0 {
        return Err("--max-conns must be positive".into());
    }
    if max_batch == 0 || workers == 0 {
        return Err("--max-batch and --workers must be positive".into());
    }
    if cfg.queue_capacity < max_batch {
        return Err(format!(
            "--queue-cap {} must hold at least one batch (--max-batch {max_batch})",
            cfg.queue_capacity
        ));
    }
    if cfg.cache_capacity < max_batch {
        return Err(format!(
            "--cache-cap {} must hold at least one batch (--max-batch {max_batch})",
            cfg.cache_capacity
        ));
    }
    let addr = args.text("addr")?;

    let netlist = load_netlist(args)?;
    let (graph, _map) = netlist_to_graph(&netlist);
    let model = match args.get("model") {
        Some(path) => load_checkpoint_file(path)?,
        None => {
            eprintln!(
                "warning: no --model checkpoint; serving a freshly initialized \
                 default model (structure-only smoke predictions). Train one with \
                 `cirgps pretrain`/`finetune` (docs/training.md)."
            );
            CircuitGps::new(ModelConfig::default())
        }
    };
    eprintln!(
        "inference backend: {}",
        cirgps::nn::Backend::active().name()
    );

    let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "cirgps-serve: design {} ({} nodes, {} edges) on http://{local} \
         ({workers} workers, batch ≤ {max_batch}, wait ≤ {max_wait_us} µs)",
        netlist.name,
        graph.num_nodes(),
        graph.num_edges()
    );
    eprintln!(
        "endpoints: GET /healthz, GET /metrics, POST /v1/predict, POST /v1/sweep (docs/serving.md)"
    );
    let drain_timeout = cfg.drain_timeout;
    let server = Server::new(model, graph, netlist.name.clone(), cfg);
    // SIGINT/SIGTERM → graceful drain: a monitor thread polls the
    // interrupt latch (signal handlers can only flip an atomic) and
    // kicks off the drain; `serve` returns once connections finish or
    // the drain deadline passes.
    interrupt::install();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            use std::sync::atomic::Ordering;
            while !done.load(Ordering::SeqCst) {
                if interrupt::requested() {
                    eprintln!(
                        "cirgps-serve: signal received — draining (answering in-flight work, \
                         refusing new connections, deadline {} ms)",
                        drain_timeout.as_millis()
                    );
                    server.begin_drain(local);
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        server.serve(listener);
        done.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    eprintln!("cirgps-serve: drained; all accepted work answered");
    Ok(())
}

fn cmd_client(args: &Args) -> Result<(), String> {
    use std::io::Write as _;
    let addr = args.text("addr")?;
    let method = args.text("method")?.to_ascii_uppercase();
    if method != "GET" && method != "POST" {
        return Err(format!("--method must be GET or POST, got {method:?}"));
    }
    let path = args.text("path")?;
    let body = match (args.get("body"), args.get("body-file")) {
        (Some(_), Some(_)) => return Err("--body and --body-file are exclusive".into()),
        (Some(b), None) => b.as_bytes().to_vec(),
        (None, Some(f)) => fs::read(f).map_err(|e| format!("reading {f}: {e}"))?,
        (None, None) => Vec::new(),
    };
    let defaults = RetryPolicy::default();
    let retries = args.value_or("retries", defaults.max_attempts)?;
    let deadline_ms = args.value_or("deadline-ms", defaults.deadline.as_millis() as u64)?;
    if retries == 0 || deadline_ms == 0 {
        return Err("--retries and --deadline-ms must be positive".into());
    }
    let seed: u64 = args.value("seed")?;
    let policy = RetryPolicy {
        max_attempts: retries,
        deadline: Duration::from_millis(deadline_ms),
        ..defaults
    };
    let mut client = Client::new(addr).with_policy(policy).with_seed(seed);

    // /v1/sweep streams a chunked JSONL body: forward each chunk to
    // stdout as it arrives instead of buffering the whole sweep.
    if path.starts_with("/v1/sweep") {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let mut write_ok = true;
        let status = client
            .post_stream(path, &body, &mut |chunk| {
                write_ok = out.write_all(chunk).is_ok() && out.flush().is_ok();
                write_ok
            })
            .map_err(|e| e.to_string())?;
        if !write_ok {
            return Err("stdout closed mid-stream".into());
        }
        if status >= 400 {
            return Err(format!("server answered {status}"));
        }
        return Ok(());
    }

    let resp = match method.as_str() {
        "GET" => client.get(path),
        _ => client.post(path, &body),
    }
    .map_err(|e| e.to_string())?;
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(&resp.body)
        .and_then(|()| {
            if resp.body.last() != Some(&b'\n') {
                stdout.write_all(b"\n")
            } else {
                Ok(())
            }
        })
        .map_err(|e| e.to_string())?;
    if resp.status >= 400 {
        return Err(format!("server answered {}", resp.status));
    }
    Ok(())
}

fn cmd_energy(args: &Args) -> Result<(), String> {
    let netlist = load_netlist(args)?;
    let spf = load_spf(args)?;
    let vectors: usize = args.value("vectors")?;
    let vdd: f64 = args.value("vdd")?;
    let caps = net_capacitances(&netlist, &spf);
    let total_cap: f64 = caps.iter().sum();
    let result = simulate_energy(&netlist, &caps, vdd, vectors, args.value("seed")?);
    println!(
        "total lumped capacitance: {:.3e} F over {} nets",
        total_cap,
        netlist.num_nets()
    );
    println!(
        "switching energy: {:.3e} J across {} vectors ({} toggles)",
        result.energy, result.vectors, result.total_toggles
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_command_declares_a_flag_twice() {
        for (i, cmd) in COMMANDS.iter().enumerate() {
            assert!(
                COMMANDS[..i].iter().all(|c| c.name != cmd.name),
                "command {} is declared twice",
                cmd.name
            );
            for (j, flag) in cmd.flags.iter().enumerate() {
                assert!(
                    cmd.flags[..j].iter().all(|f| f.name != flag.name),
                    "`cirgps {}` declares --{} twice",
                    cmd.name,
                    flag.name
                );
            }
        }
    }

    #[test]
    fn library_owned_defaults_match_their_structs() {
        let serve = ServeConfig::default();
        let model = ModelConfig::default();
        let retry = RetryPolicy::default();
        let pinned = [
            ("serve", "max-batch", serve.max_batch.to_string()),
            (
                "serve",
                "max-wait-us",
                serve.max_wait.as_micros().to_string(),
            ),
            ("serve", "workers", serve.workers.to_string()),
            ("serve", "queue-cap", serve.queue_capacity.to_string()),
            ("serve", "cache-cap", serve.cache_capacity.to_string()),
            (
                "serve",
                "drain-timeout-ms",
                serve.drain_timeout.as_millis().to_string(),
            ),
            (
                "serve",
                "request-timeout-ms",
                serve.request_timeout.as_millis().to_string(),
            ),
            ("serve", "max-body-bytes", serve.max_body_bytes.to_string()),
            ("serve", "max-headers", serve.max_headers.to_string()),
            (
                "serve",
                "idle-timeout-ms",
                serve.idle_timeout.as_millis().to_string(),
            ),
            (
                "serve",
                "ingress-timeout-ms",
                serve.ingress_timeout.as_millis().to_string(),
            ),
            ("serve", "max-conns", serve.max_connections.to_string()),
            ("pretrain", "hidden-dim", model.hidden_dim.to_string()),
            ("pretrain", "layers", model.num_layers.to_string()),
            ("pretrain", "heads", model.heads.to_string()),
            ("pretrain", "pe-dim", model.pe_dim.to_string()),
            ("pretrain", "dropout", model.dropout.to_string()),
            ("client", "retries", retry.max_attempts.to_string()),
            (
                "client",
                "deadline-ms",
                retry.deadline.as_millis().to_string(),
            ),
        ];
        let mut lib_rows = 0;
        for cmd in COMMANDS {
            for flag in cmd.flags {
                let Fallback::Lib(shown) = flag.default else {
                    continue;
                };
                lib_rows += 1;
                let (_, _, want) = pinned
                    .iter()
                    .find(|(c, f, _)| *c == cmd.name && *f == flag.name)
                    .unwrap_or_else(|| {
                        panic!("`cirgps {} --{}` is not pinned", cmd.name, flag.name)
                    });
                assert_eq!(shown, want, "`cirgps {} --{}`", cmd.name, flag.name);
            }
        }
        assert_eq!(
            lib_rows,
            pinned.len(),
            "a pinned flag lost its library default"
        );
    }

    #[test]
    #[should_panic(expected = "reads undeclared flag --seed")]
    fn reading_an_undeclared_flag_panics() {
        let eval = COMMANDS.iter().find(|c| c.name == "eval").unwrap();
        let args = Args::parse(eval, &[]).unwrap();
        let _ = args.get("seed");
    }
}
