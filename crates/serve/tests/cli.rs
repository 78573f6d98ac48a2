//! The `vartol-serve` command line rejects a Monte-Carlo budget below two
//! samples with a usage error (exit 2) instead of serving requests that
//! could only fail.

use std::io::Write;
use std::process::{Command, Stdio};

fn serve(args: &[&str], stdin: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vartol-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn vartol-serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn mc_samples_below_two_is_a_usage_error() {
    for samples in ["0", "1"] {
        let (code, stderr) = serve(&["--repl", "--mc-samples", samples], "");
        assert_eq!(code, Some(2), "--mc-samples {samples}: {stderr}");
        assert!(
            stderr.contains("--mc-samples must be at least 2"),
            "{stderr}"
        );
    }
}

#[test]
fn mc_samples_of_two_is_accepted() {
    let (code, stderr) = serve(&["--repl", "--mc-samples", "2"], "\"Shutdown\"\n");
    assert_eq!(code, Some(0), "{stderr}");
}
