//! Bakes the compiler version and, when the sources sit in a git checkout,
//! the revision into the binary for the report's host fingerprint.

use std::path::Path;
use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let head = Path::new("../.git/HEAD");
    let rev = if head.exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs/heads");
        run("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    };
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        rev.as_deref().unwrap_or("unknown")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
