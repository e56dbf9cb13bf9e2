//! `resilim campaign` argument validation through the real binary.

use std::process::Command;

#[test]
fn unique_errors_without_unique_ops_is_an_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_resilim"))
        .args([
            "campaign", "--apps", "mg", "--scale", "4", "--errors", "unique",
        ])
        .args(["--tests", "2", "--seed", "1"])
        .output()
        .expect("spawn resilim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "must fail: {stderr}");
    assert!(
        stderr.contains("errors=unique needs parallel-unique computation"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A `--store` that cannot hold the ledger is an error naming the path,
/// not a campaign that silently runs without durability.
#[test]
fn unopenable_store_is_an_error_naming_the_path() {
    let file = std::env::temp_dir().join(format!("resilim-store-file-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_resilim"))
        .args([
            "campaign", "--apps", "cg", "--scale", "2", "--errors", "par",
        ])
        .args(["--tests", "2", "--seed", "1", "--store"])
        .arg(&file)
        .output()
        .expect("spawn resilim");
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "must fail: {stderr}");
    assert!(
        stderr.contains(&file.join("ledger").display().to_string()),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
