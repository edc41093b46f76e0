//! Process-level exit-code contract for the `islabel` binary: scripts and
//! CI gate on these, so they are asserted here against the real executable
//! rather than the in-process `run()` helper.

use std::path::PathBuf;
use std::process::{Command, Output};

fn islabel(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_islabel"))
        .args(args)
        .output()
        .expect("spawn islabel")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("islabel-exit-{}-{name}", std::process::id()))
}

#[test]
fn help_exits_zero_and_documents_exit_codes() {
    let out = islabel(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("EXIT CODES"),
        "--help must document exit codes"
    );
    assert!(text.contains("recover\n        --check") || text.contains("recover"));
    assert!(text.contains("remote-query"));
}

#[test]
fn unknown_command_exits_one_with_error_on_stderr() {
    let out = islabel(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "stderr was: {err}");
    assert!(err.contains("frobnicate"), "stderr was: {err}");
}

#[test]
fn recover_check_exit_codes() {
    let graph = tmp("g.isgb");
    let index = tmp("i.islx");
    let wal = tmp("w.wal");
    let graph_s = graph.to_str().unwrap();
    let index_s = index.to_str().unwrap();
    let wal_s = wal.to_str().unwrap();

    assert!(
        islabel(&["gen", "google", "--scale", "tiny", "-o", graph_s])
            .status
            .success()
    );
    assert!(islabel(&["build", graph_s, "-o", index_s]).status.success());
    assert!(
        islabel(&["ingest", index_s, "--wal", wal_s, "--ops", "30", "--seed", "3"])
            .status
            .success()
    );

    // Healthy artifact + WAL: recover --check exits 0, and not because it
    // skipped the comparison with reference Dijkstra.
    let out = islabel(&["recover", index_s, "--wal", wal_s, "--check"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("reference leg ran"), "stdout was: {text}");

    // A WAL that is not a WAL: exit 1 and `error:` on stderr.
    std::fs::write(&wal, b"this is not a write-ahead log").unwrap();
    let out = islabel(&["recover", index_s, "--wal", wal_s, "--check"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "stderr was: {err}");

    for f in [&graph, &index, &wal] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn pre_v3_artifact_exits_one_naming_version_and_remedy() {
    for version in [1u32, 2, 3] {
        let old = tmp(&format!("v{version}.islx"));
        let mut bytes = b"ISLX".to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.resize(1024, 0);
        std::fs::write(&old, bytes).unwrap();

        let out = islabel(&["query", old.to_str().unwrap(), "0", "1"]);
        assert_eq!(out.status.code(), Some(1));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("version {version}")), "{err}");
        assert!(err.contains("islabel build"), "{err}");
        std::fs::remove_file(&old).ok();
    }
}

#[test]
fn remote_query_against_dead_port_exits_one() {
    // Bind-then-drop reserves a port that nothing is listening on.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);

    let out = islabel(&["remote-query", &addr, "--ping"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "stderr was: {err}");
}

#[test]
fn closed_stdout_is_not_a_failure() {
    // `islabel stats x.islx --file | head -1`: the reader going away ends
    // the report, not the command. The pipe's read end is closed before
    // the child starts, so its first write fails with a broken pipe.
    let graph = tmp("pipe.isgb");
    let index = tmp("pipe.islx");
    let (graph_s, index_s) = (graph.to_str().unwrap(), index.to_str().unwrap());
    assert!(
        islabel(&["gen", "google", "--scale", "tiny", "-o", graph_s])
            .status
            .success()
    );
    assert!(islabel(&["build", graph_s, "-o", index_s]).status.success());
    for args in [vec!["stats", index_s, "--file"], vec!["--help"]] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_islabel"))
            .args(&args)
            .stdout(writer)
            .output()
            .expect("spawn islabel");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: {err}");
    }
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&index).ok();
}
