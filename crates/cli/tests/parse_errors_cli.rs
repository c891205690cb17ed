//! Malformed-input integration test: headers that declare more
//! variables than a literal can address are parse errors (exit 2), not
//! allocation failures.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_on_stdin(input: &str, extra_args: &[&str]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_coremax-solve"))
        .args(extra_args)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coremax-solve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait")
}

#[test]
fn unaddressable_variable_count_exits_2() {
    for input in [
        "p wcnf 3000000000 1 10\n10 1 0\n",
        "p cnf 3000000000 1\n1 0\n",
    ] {
        for args in [&[][..], &["--no-preprocess"][..]] {
            let out = run_on_stdin(input, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{input:?} {args:?}: {stderr}");
            assert!(
                stderr.contains("parse error") && stderr.contains("variable count"),
                "{input:?} {args:?}: {stderr}"
            );
        }
    }
}
