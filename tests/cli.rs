//! Integration test for the `cirgps` command-line tool: generate a design
//! to disk, then run every subcommand against the written files.

use std::process::Command;

fn cirgps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cirgps"))
}

#[test]
fn cli_full_workflow() {
    let dir = std::env::temp_dir().join(format!("cirgps_cli_test_{}", std::process::id()));
    let dir_s = dir.to_str().unwrap().to_string();

    // gen
    let out = cirgps()
        .args([
            "gen", "--kind", "timing", "--preset", "tiny", "--seed", "3", "--out", &dir_s,
        ])
        .output()
        .expect("run gen");
    assert!(
        out.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sp = format!("{dir_s}/TIMING_CONTROL.sp");
    let spf = format!("{dir_s}/TIMING_CONTROL.spf");
    assert!(std::path::Path::new(&sp).exists());
    assert!(std::path::Path::new(&spf).exists());

    // stats
    let out = cirgps()
        .args(["stats", "--netlist", &sp, "--top", "TIMING_CONTROL"])
        .output()
        .expect("run stats");
    assert!(
        out.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("TIMING_CONTROL"), "{text}");
    assert!(text.contains("transistors"), "{text}");

    // sample
    let out = cirgps()
        .args([
            "sample",
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--spf",
            &spf,
            "--per-type",
            "30",
        ])
        .output()
        .expect("run sample");
    assert!(
        out.status.success(),
        "sample failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mean enclosing subgraph"), "{text}");

    // predict: batched tape-free inference over the design's candidate
    // pairs, JSON lines out.
    let out = cirgps()
        .args([
            "predict",
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--spf",
            &spf,
            "--per-type",
            "10",
            "--batch-size",
            "4",
        ])
        .output()
        .expect("run predict");
    assert!(
        out.status.success(),
        "predict failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let first = text.lines().next().expect("at least one prediction");
    assert!(
        first.starts_with('{') && first.contains("\"prob\":"),
        "{first}"
    );
    for line in text.lines() {
        let prob: f32 = line
            .split("\"prob\":")
            .nth(1)
            .and_then(|s| s.trim_end_matches('}').parse().ok())
            .expect("parse prob");
        assert!((0.0..=1.0).contains(&prob), "{line}");
    }

    // predict --task cap writes decoded farads to a file.
    let out_path = format!("{dir_s}/preds.json");
    let out = cirgps()
        .args([
            "predict",
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--spf",
            &spf,
            "--per-type",
            "5",
            "--task",
            "cap",
            "--out",
            &out_path,
        ])
        .output()
        .expect("run predict cap");
    assert!(
        out.status.success(),
        "predict cap failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&out_path).expect("read preds");
    assert!(written.contains("\"cap_pred_f\":"), "{written}");

    // energy
    let out = cirgps()
        .args([
            "energy",
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--spf",
            &spf,
            "--vectors",
            "8",
        ])
        .output()
        .expect("run energy");
    assert!(
        out.status.success(),
        "energy failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("switching energy"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_reports_errors_cleanly() {
    let out = cirgps().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = cirgps()
        .args(["gen", "--kind", "nonexistent"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown design kind"));

    let out = cirgps()
        .args(["stats", "--netlist", "/nonexistent/file.sp", "--top", "X"])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

#[test]
fn cli_unknown_flags_name_the_failing_flag() {
    let out = cirgps()
        .args(["gen", "--kind", "timing", "--frobnicate", "5"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--frobnicate"), "{err}");
    assert!(err.contains("`cirgps gen`"), "{err}");
    assert!(err.contains("--preset"), "expected-flag listing: {err}");

    // A typo'd flag on predict is caught before any file I/O.
    let out = cirgps()
        .args(["predict", "--netlists", "x.sp", "--top", "X"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--netlists"), "{err}");

    // Positional junk is rejected too.
    let out = cirgps()
        .args(["stats", "whoops", "--top", "X"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("whoops"), "{err}");

    // serve validates its batching knobs.
    let out = cirgps()
        .args([
            "serve",
            "--netlist",
            "x.sp",
            "--top",
            "X",
            "--max-batch",
            "64",
            "--queue-cap",
            "8",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--queue-cap"), "{err}");
}

#[test]
fn cli_usage_documents_every_subcommand() {
    // `help <topic>` must print usage, not trip over the positional.
    let out = cirgps().args(["help", "gen"]).output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = cirgps().args(["--help"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "gen", "stats", "sample", "pretrain", "finetune", "eval", "predict", "serve", "energy",
    ] {
        assert!(text.contains(&format!("cirgps {cmd}")), "usage lacks {cmd}");
    }
    for flag in [
        "--max-wait-us",
        "--batch-size",
        "--out FILE.json",
        "--shots",
        "--unfreeze-all",
        "--metrics-out",
        "--eval-every",
    ] {
        assert!(text.contains(flag), "usage lacks {flag}");
    }
}

/// The complete few-shot workflow through the CLI alone: pretrain on a
/// toy design, few-shot finetune, eval (finite JSON metrics), and
/// predict/serve-path loading of the finetuned checkpoint.
#[test]
fn cli_training_pipeline_end_to_end() {
    let dir = std::env::temp_dir().join(format!("cirgps_cli_train_{}", std::process::id()));
    let dir_s = dir.to_str().unwrap().to_string();
    let out = cirgps()
        .args([
            "gen", "--kind", "timing", "--preset", "tiny", "--seed", "3", "--out", &dir_s,
        ])
        .output()
        .expect("run gen");
    assert!(out.status.success());
    let sp = format!("{dir_s}/TIMING_CONTROL.sp");
    let spf = format!("{dir_s}/TIMING_CONTROL.spf");
    let pre = format!("{dir_s}/pre.ckpt");
    let fine = format!("{dir_s}/fine.ckpt");
    let metrics = format!("{dir_s}/pretrain.json");

    // pretrain: 2 epochs, a deliberately NON-default architecture so the
    // rest of the pipeline proves the checkpoint embeds its config.
    let out = cirgps()
        .args([
            "pretrain",
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--spf",
            &spf,
            "--per-type",
            "40",
            "--epochs",
            "2",
            "--hidden-dim",
            "16",
            "--layers",
            "1",
            "--heads",
            "2",
            "--pe-dim",
            "4",
            "--eval-every",
            "1",
            "--metrics-out",
            &metrics,
            "--out",
            &pre,
        ])
        .output()
        .expect("run pretrain");
    assert!(
        out.status.success(),
        "pretrain failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = std::fs::read_to_string(&metrics).expect("metrics log");
    assert!(log.contains("\"command\":\"pretrain\""), "{log}");
    assert!(log.contains("\"epoch\":2"), "{log}");
    assert!(log.contains("\"auc\":"), "{log}");

    // finetune: 4 shots, backbone frozen by default. No architecture
    // flags — the checkpoint knows its own config.
    let out = cirgps()
        .args([
            "finetune",
            "--model",
            &pre,
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--spf",
            &spf,
            "--per-type",
            "40",
            "--shots",
            "4",
            "--epochs",
            "3",
            "--out",
            &fine,
        ])
        .output()
        .expect("run finetune");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "finetune failed: {err}");
    assert!(err.contains("4 shots"), "{err}");
    assert!(err.contains("backbone frozen"), "{err}");
    assert!(
        !err.contains("legacy"),
        "v1 checkpoint tripped the legacy warning: {err}"
    );

    // eval: one JSON object to stdout with finite metrics.
    let out = cirgps()
        .args([
            "eval",
            "--model",
            &fine,
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--spf",
            &spf,
            "--per-type",
            "40",
        ])
        .output()
        .expect("run eval");
    assert!(
        out.status.success(),
        "eval failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let json = text.lines().next().expect("eval json");
    for key in ["\"link\":", "\"reg\":", "\"auc\":", "\"mae\":"] {
        assert!(json.contains(key), "{json}");
    }
    let num_after = |key: &str| -> f64 {
        json.split(key)
            .nth(1)
            .and_then(|s| {
                s.trim_start_matches(['{'])
                    .split([',', '}'])
                    .next()?
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("no numeric {key} in {json}"))
    };
    assert!(num_after("\"auc\":").is_finite());
    assert!(num_after("\"mae\":").is_finite());

    // predict accepts the finetuned (non-default-config) checkpoint
    // without any architecture flags.
    let out = cirgps()
        .args([
            "predict",
            "--model",
            &fine,
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--spf",
            &spf,
            "--per-type",
            "5",
            "--task",
            "cap",
        ])
        .output()
        .expect("run predict");
    assert!(
        out.status.success(),
        "predict failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().next().unwrap().contains("\"cap_norm\":"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A shape-mismatched checkpoint must produce the named error (param
/// name + expected vs found shape), not a bare I/O error; a valid legacy
/// dump must load with a deprecation warning.
#[test]
fn cli_checkpoint_mismatch_and_legacy_warnings() {
    use cirgps::model::{CircuitGps, ModelConfig};

    let dir = std::env::temp_dir().join(format!("cirgps_cli_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_str().unwrap().to_string();
    let out = cirgps()
        .args([
            "gen", "--kind", "timing", "--preset", "tiny", "--seed", "3", "--out", &dir_s,
        ])
        .output()
        .expect("run gen");
    assert!(out.status.success());
    let sp = format!("{dir_s}/TIMING_CONTROL.sp");
    let spf = format!("{dir_s}/TIMING_CONTROL.spf");

    // Legacy dump of a NON-default architecture: loading assumes the
    // default config, so the loader must name the mismatched parameter
    // and both shapes.
    let bad = format!("{dir_s}/bad.ckpt");
    let model = CircuitGps::new(ModelConfig {
        hidden_dim: 16,
        pe_dim: 4,
        heads: 2,
        ..ModelConfig::default()
    });
    model
        .save(std::fs::File::create(&bad).unwrap())
        .expect("write legacy dump");
    let out = cirgps()
        .args([
            "predict",
            "--model",
            &bad,
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--spf",
            &spf,
            "--per-type",
            "5",
        ])
        .output()
        .expect("run predict");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("shape mismatch for param"), "{err}");
    assert!(err.contains("model expects"), "{err}");
    assert!(err.contains("checkpoint has"), "{err}");
    assert!(err.contains("enc."), "should name the parameter: {err}");

    // A default-config legacy dump still loads — with the deprecation
    // warning steering users to the self-describing container.
    let legacy = format!("{dir_s}/legacy.ckpt");
    let model = CircuitGps::new(ModelConfig::default());
    model
        .save(std::fs::File::create(&legacy).unwrap())
        .expect("write legacy dump");
    let out = cirgps()
        .args([
            "predict",
            "--model",
            &legacy,
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--spf",
            &spf,
            "--per-type",
            "5",
        ])
        .output()
        .expect("run predict");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "legacy load failed: {err}");
    assert!(err.contains("legacy raw weight dump"), "{err}");
    assert!(err.contains("deprecated"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGINT during a checkpointed pretrain must finish the in-flight
/// epoch, write a resumable snapshot, and exit cleanly; `--resume` with
/// the same flags must then carry the run to completion.
#[cfg(unix)]
#[test]
fn cli_sigint_writes_resumable_snapshot_and_resume_completes() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("cirgps_cli_sigint_{}", std::process::id()));
    let dir_s = dir.to_str().unwrap().to_string();
    let out = cirgps()
        .args([
            "gen", "--kind", "timing", "--preset", "tiny", "--seed", "3", "--out", &dir_s,
        ])
        .output()
        .expect("run gen");
    assert!(out.status.success());
    let sp = format!("{dir_s}/TIMING_CONTROL.sp");
    let spf = format!("{dir_s}/TIMING_CONTROL.spf");
    let ckpt = format!("{dir_s}/pre.ckpt");
    // Many more epochs than can finish between "first epoch line seen"
    // and "SIGINT delivered" — the interrupt always lands mid-run.
    let train_args = |extra: &[&str]| -> Vec<String> {
        let mut a: Vec<String> = [
            "pretrain",
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--spf",
            &spf,
            "--per-type",
            "30",
            "--epochs",
            "40",
            "--hidden-dim",
            "16",
            "--layers",
            "1",
            "--heads",
            "2",
            "--pe-dim",
            "4",
            "--seed",
            "7",
            "--checkpoint-every",
            "5",
            "--out",
            &ckpt,
        ]
        .into_iter()
        .map(String::from)
        .collect();
        a.extend(extra.iter().map(|s| s.to_string()));
        a
    };

    let mut child = cirgps()
        .args(train_args(&[]))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pretrain");
    let mut err_reader = BufReader::new(child.stderr.take().unwrap());
    let mut seen = String::new();
    loop {
        let mut line = String::new();
        if err_reader.read_line(&mut line).expect("read stderr") == 0 {
            panic!("pretrain exited before its first epoch:\n{seen}");
        }
        seen.push_str(&line);
        if line.starts_with("epoch ") {
            break;
        }
    }
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(kill.success());
    let mut rest = String::new();
    err_reader.read_to_string(&mut rest).expect("drain stderr");
    let out = child.wait_with_output().expect("wait pretrain");
    assert!(
        out.status.success(),
        "interrupted pretrain must exit cleanly:\n{seen}{rest}"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("interrupted: wrote resumable snapshot"),
        "stdout: {text}\nstderr: {seen}{rest}"
    );

    let out = cirgps()
        .args(train_args(&["--resume"]))
        .output()
        .expect("run resume");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resume failed: {err}");
    assert!(err.contains("resuming"), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(&format!("wrote {ckpt}")), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Boots the daemon on port 0 against a generated design, queries it
/// over HTTP, and shuts it down — the CLI-level smoke test of `serve`.
#[test]
fn cli_serve_boots_and_answers_queries() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = std::env::temp_dir().join(format!("cirgps_cli_serve_{}", std::process::id()));
    let dir_s = dir.to_str().unwrap().to_string();
    let out = cirgps()
        .args([
            "gen", "--kind", "timing", "--preset", "tiny", "--seed", "3", "--out", &dir_s,
        ])
        .output()
        .expect("run gen");
    assert!(out.status.success());
    let sp = format!("{dir_s}/TIMING_CONTROL.sp");

    let mut daemon = cirgps()
        .args([
            "serve",
            "--netlist",
            &sp,
            "--top",
            "TIMING_CONTROL",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--max-wait-us",
            "100",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // Wait for the listener, then query /healthz and /v1/predict.
    let result = (|| -> Result<(), String> {
        let addr = bound_addr(&mut daemon)?;
        let mut stream = None;
        for _ in 0..100 {
            match std::net::TcpStream::connect(&addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
            }
        }
        let stream = stream.ok_or("daemon never started listening")?;
        let request = |mut s: std::net::TcpStream, req: String| -> Result<String, String> {
            s.write_all(req.as_bytes()).map_err(|e| e.to_string())?;
            let mut r = BufReader::new(s);
            let mut status = String::new();
            r.read_line(&mut status).map_err(|e| e.to_string())?;
            if !status.contains("200") {
                return Err(format!("bad status {status:?}"));
            }
            let mut len = 0usize;
            loop {
                let mut line = String::new();
                r.read_line(&mut line).map_err(|e| e.to_string())?;
                if line.trim_end().is_empty() {
                    break;
                }
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().map_err(|_| "bad length")?;
                }
            }
            let mut body = vec![0u8; len];
            r.read_exact(&mut body).map_err(|e| e.to_string())?;
            String::from_utf8(body).map_err(|e| e.to_string())
        };
        let health = request(
            stream,
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n".into(),
        )?;
        if !health.contains("\"status\":\"ok\"") || !health.contains("TIMING_CONTROL") {
            return Err(format!("bad healthz body {health}"));
        }
        let body = "{\"task\":\"link\",\"pairs\":[[0,1]]}";
        let resp = request(
            std::net::TcpStream::connect(&addr).map_err(|e| e.to_string())?,
            format!(
                "POST /v1/predict HTTP/1.1\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )?;
        if !resp.contains("\"probs\":[") || !resp.contains("\"count\":1") {
            return Err(format!("bad predict body {resp}"));
        }
        Ok(())
    })();

    let _ = daemon.kill();
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
    result.unwrap();
}

/// Returns the address a `serve --addr 127.0.0.1:0` daemon bound, read
/// from its `… on http://ADDR …` stderr banner. The OS picks the port at
/// bind time, so no other test's daemon can take it first. A background
/// thread keeps draining stderr so the daemon never blocks on a full pipe.
fn bound_addr(daemon: &mut std::process::Child) -> Result<String, String> {
    use std::io::{BufRead, BufReader};
    let stderr = daemon.stderr.take().ok_or("daemon stderr is not piped")?;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if let Some(rest) = line.split(" on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                let _ = tx.send(addr.to_string());
            }
        }
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .map_err(|_| "daemon never announced its listen address".to_string())
}

/// SIMD backends this host can run, as `CIRGPS_FORCE_BACKEND` values. Scalar is
/// always first; the cross-backend assertions are vacuous (self vs
/// self) on hosts with nothing wider, and CI pins an AVX2 runner.
fn host_backends() -> Vec<&'static str> {
    let mut v = vec!["scalar"];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            v.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            v.push("avx512");
        }
    }
    v
}

/// Boots `serve` forced onto `backend`, POSTs one predict request, and
/// returns the raw response body. Wire format across backends is
/// compared on these bytes.
fn serve_once(sp: &str, backend: &str) -> String {
    use std::io::{BufRead, BufReader, Read, Write};
    let args = [
        "serve",
        "--netlist",
        sp,
        "--top",
        "TIMING_CONTROL",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--max-wait-us",
        "100",
    ];
    let mut daemon = cirgps()
        .args(args)
        .env("CIRGPS_FORCE_BACKEND", backend)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let result = (|| -> Result<String, String> {
        let addr = bound_addr(&mut daemon)?;
        let mut connected = false;
        for _ in 0..100 {
            if std::net::TcpStream::connect(&addr).is_ok() {
                connected = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        if !connected {
            return Err("daemon never started listening".into());
        }
        let body = "{\"task\":\"link\",\"pairs\":[[0,1],[1,2],[0,3]]}";
        let mut s = std::net::TcpStream::connect(&addr).map_err(|e| e.to_string())?;
        s.write_all(
            format!(
                "POST /v1/predict HTTP/1.1\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        let mut r = BufReader::new(s);
        let mut status = String::new();
        r.read_line(&mut status).map_err(|e| e.to_string())?;
        if !status.contains("200") {
            return Err(format!("bad status {status:?}"));
        }
        let mut len = 0usize;
        loop {
            let mut line = String::new();
            r.read_line(&mut line).map_err(|e| e.to_string())?;
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v.trim().parse().map_err(|_| "bad length")?;
            }
        }
        let mut resp = vec![0u8; len];
        r.read_exact(&mut resp).map_err(|e| e.to_string())?;
        String::from_utf8(resp).map_err(|e| e.to_string())
    })();
    let _ = daemon.kill();
    let _ = daemon.wait();
    result.unwrap()
}

/// The wire-format half of the parity contract: `predict` output files
/// and `serve` response bodies must be byte-identical no matter which
/// SIMD backend the process was forced onto.
#[test]
fn cli_cross_backend_wire_format_is_stable() {
    let dir = std::env::temp_dir().join(format!("cirgps_cli_xbackend_{}", std::process::id()));
    let dir_s = dir.to_str().unwrap().to_string();
    let out = cirgps()
        .args([
            "gen", "--kind", "timing", "--preset", "tiny", "--seed", "3", "--out", &dir_s,
        ])
        .output()
        .expect("run gen");
    assert!(out.status.success());
    let sp = format!("{dir_s}/TIMING_CONTROL.sp");
    let spf = format!("{dir_s}/TIMING_CONTROL.spf");
    let predict = |backend: &str, out_path: &str| {
        cirgps()
            .args([
                "predict",
                "--netlist",
                &sp,
                "--top",
                "TIMING_CONTROL",
                "--spf",
                &spf,
                "--per-type",
                "20",
                "--out",
                out_path,
            ])
            .env("CIRGPS_FORCE_BACKEND", backend)
            .output()
            .expect("run predict")
    };

    let mut reference: Option<(String, Vec<u8>)> = None;
    for backend in host_backends() {
        let out_path = format!("{dir_s}/pred_{backend}.jsonl");
        let out = predict(backend, &out_path);
        assert!(
            out.status.success(),
            "predict under CIRGPS_FORCE_BACKEND={backend} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&out_path).expect("predict output");
        assert!(!bytes.is_empty());
        match &reference {
            None => reference = Some((backend.to_string(), bytes)),
            Some((ref_backend, ref_bytes)) => assert_eq!(
                ref_bytes, &bytes,
                "predict differs between {ref_backend} and {backend}"
            ),
        }
    }

    // An unknown forced backend must fail loudly, not fall back.
    let out = predict("neon", &format!("{dir_s}/pred_neon.jsonl"));
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("CIRGPS_FORCE_BACKEND"),
        "error must name the backend override"
    );

    // Serve wire format: identical response bytes under every backend.
    let mut reference: Option<(String, String)> = None;
    for backend in host_backends() {
        let body = serve_once(&sp, backend);
        assert!(body.contains("\"probs\":["), "bad predict body {body}");
        match &reference {
            None => reference = Some((backend.to_string(), body)),
            Some((ref_backend, ref_body)) => assert_eq!(
                ref_body, &body,
                "serve response differs between {ref_backend} and {backend}"
            ),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a over bytes (same convention as `tests/datagen_golden.rs`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `tests/fixtures/quant_section.ckpt` is a `--quantize` export written
/// while exports still carried the int8 codes in a `quant` checkpoint
/// section next to the unrounded f32 weights:
///
/// ```text
/// cirgps pretrain --grammar bus:400:1:200 --hidden-dim 8 --layers 1 \
///     --heads 2 --pe-dim 2 --epochs 4 --per-type 40 --seed 7 --quantize
/// ```
///
/// Loading it writes the dequantized codes into the weights, so it must
/// keep predicting exactly the bytes it predicted when it was written.
#[test]
fn cli_quant_section_checkpoint_predicts_the_same_bytes() {
    let dir = std::env::temp_dir().join(format!("cirgps_cli_quantfx_{}", std::process::id()));
    let dir_s = dir.to_str().unwrap().to_string();
    let out = cirgps()
        .args([
            "datagen",
            "--family",
            "bus",
            "--min-size",
            "200",
            "--max-size",
            "400",
            "--count",
            "1",
            "--out",
            &dir_s,
        ])
        .output()
        .expect("run datagen");
    assert!(out.status.success());
    let name = "G_BUS_INVX4_L16_S1";
    let sp = format!("{dir_s}/{name}.sp");
    let spf = format!("{dir_s}/{name}.spf");
    let model = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/quant_section.ckpt"
    );
    for (task, digest) in [("link", "2d32fd3f20846bf5"), ("cap", "170d20d2b61f6f31")] {
        let out_path = format!("{dir_s}/pred_{task}.jsonl");
        let out = cirgps()
            .args([
                "predict",
                "--model",
                model,
                "--netlist",
                &sp,
                "--top",
                name,
                "--spf",
                &spf,
                "--per-type",
                "20",
                "--task",
                task,
                "--out",
                &out_path,
            ])
            .output()
            .expect("run predict");
        assert!(
            out.status.success(),
            "predict --task {task} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&out_path).expect("predict output");
        assert_eq!(
            format!("{:016x}", fnv1a(&bytes)),
            digest,
            "--task {task} output drifted for the quant-section fixture"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
