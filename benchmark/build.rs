//! Captures the build facts the benchmark reports with every run: the
//! compiler version and, when the sources are a git checkout, the
//! commit they were built from.

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
    println!("cargo:rustc-env=REPOBENCH_RUSTC={version}");

    // Only ask git when the repository root itself is a checkout, so a
    // plain source tree never reports the commit of an enclosing repo.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let root = Path::new(&manifest).join("..");
    let git = root.join(".git");
    let rev = if git.is_dir() {
        // rebuild when HEAD moves: HEAD itself, and the branch ref it names
        println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            if let Some(r) = head.trim().strip_prefix("ref: ") {
                if git.join(r).exists() {
                    println!("cargo:rerun-if-changed={}", git.join(r).display());
                }
            }
        }
        run("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        None
    };
    println!(
        "cargo:rustc-env=REPOBENCH_GIT_REV={}",
        rev.unwrap_or_else(|| "none".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
