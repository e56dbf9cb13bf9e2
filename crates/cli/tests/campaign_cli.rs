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
