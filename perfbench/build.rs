//! Stamps the host identity the benchmark prints into the binary: the
//! compiler version, the build profile, the git commit when the source
//! tree is a git checkout, and a digest of the runtime's sources that
//! identifies the code when it is not.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into())
    );
    println!("cargo:rustc-env=PERFBENCH_GIT={}", git_commit(&root));
    println!(
        "cargo:rustc-env=PERFBENCH_SOURCE={:016x}",
        source_digest(&root)
    );

    println!("cargo:rerun-if-changed=build.rs");
    // A path that does not exist counts as changed on every build, so
    // name the git metadata only where there is some.
    for path in [
        "crates",
        "Cargo.toml",
        "Cargo.lock",
        ".git/HEAD",
        ".git/refs",
    ] {
        if root.join(path).exists() {
            println!("cargo:rerun-if-changed=../{path}");
        }
    }
}

/// The commit `HEAD` names, read from `.git` directly so a tree that is
/// not a git checkout never picks up an enclosing repository's commit.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the relative path and bytes of every file under
/// `crates/` plus the workspace manifest and lock file, in sorted path
/// order.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(fs::read(&f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}
