//! `--checkpoint-in` refuses an artifact that does not decode: the harness
//! exits 2 naming the file, before any row runs.

use std::process::Command;

use shrimp_core::{ClusterCheckpoint, NodeState};

#[test]
fn an_undecodable_checkpoint_exits_2_and_runs_no_row() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("checkpoint_in");
    std::fs::create_dir_all(&dir).unwrap();
    // A one-node artifact whose only page number was edited from 1 to
    // 1006, past the node's allocator cursor: capture never writes that.
    let ckpt = ClusterCheckpoint {
        time: 1,
        total_nodes: 1,
        tag: b"warm".to_vec(),
        nodes: vec![NodeState {
            node: 0,
            pages: vec![(1006, vec![7; 4096])],
            next_phys_page: 2,
            nic_seq: 0,
            next_proxy: 0,
            opt: Vec::new(),
            ipt: Vec::new(),
        }],
    };
    let path = dir.join("edited.ckpt");
    std::fs::write(&path, ckpt.encode()).unwrap();
    let sweep = dir.join("sweep.json");
    let _ = std::fs::remove_file(&sweep);

    let out = Command::new(env!("CARGO_BIN_EXE_shrimp-harness"))
        .args(["--smoke", "--experiment", "warm", "--workers", "1"])
        .arg("--checkpoint-in")
        .arg(&path)
        .arg("--out")
        .arg(&sweep)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stderr.starts_with(&format!("error: checkpoint {}: ", path.display())),
        "{stderr}"
    );
    assert!(stdout.is_empty(), "rows ran: {stdout}");
    assert!(!sweep.exists(), "a sweep artifact was written");
}
