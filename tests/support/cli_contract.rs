//! The command-line contract every workspace binary honours, checked
//! black-box against the real executable. One body, `#[path]`-included
//! by a `tests/cli.rs` in each package that owns binaries (Cargo only
//! hands `CARGO_BIN_EXE_*` to the owning package's tests).
//!
//! For each binary: `--help` exits 0 and prints the generated usage; an
//! unknown flag, a flag missing its value, and a value outside a flag's
//! kind all exit 2 and print that same usage on stderr; every `"--flag"`
//! literal in the binary's source is a flag the help lists; and the
//! help text appears verbatim in the README's command reference and in
//! the binary's `//!` header — the flag table is the one source of
//! truth for all three.

use std::path::Path;
use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{exe}: {e}"))
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Asserts `exe args...` is rejected as misuse: exit 2, usage on stderr.
pub fn assert_misuse(exe: &str, args: &[&str], help: &str) {
    let out = run(exe, args);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?} must exit 2");
    assert!(
        text(&out.stderr).contains(help),
        "{exe} {args:?} must print the generated usage on stderr"
    );
}

/// Checks one binary. `repo` is the workspace root, `source` the
/// binary's main file relative to it. Returns the help text.
pub fn check(exe: &str, repo: &Path, source: &str) -> String {
    let out = run(exe, &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{exe} --help must exit 0");
    let help = text(&out.stdout);
    assert!(
        help.starts_with("usage: "),
        "{exe}: help starts with the synopsis:\n{help}"
    );

    // The options table: `  --flag [SHAPE]  description` per line.
    let options = help
        .split("\noptions:\n")
        .nth(1)
        .expect("help has an options section");
    let mut flags: Vec<(&str, Option<&str>)> = Vec::new();
    for line in options.lines() {
        let (left, _) = line
            .trim_start()
            .split_once("  ")
            .expect("flag line has a description");
        let mut words = left.split(' ');
        flags.push((words.next().expect("flag name"), words.next()));
    }

    assert_misuse(exe, &["--no-such-flag"], &help);
    for &(flag, shape) in &flags {
        let Some(shape) = shape else { continue };
        assert_misuse(exe, &[flag], &help);
        if shape == "N" || shape == "F" || shape.contains('|') {
            assert_misuse(exe, &[flag, "not-a-legal-value"], &help);
        }
    }

    let src = std::fs::read_to_string(repo.join(source)).expect("binary source");
    for literal in src.split("\"--").skip(1) {
        let name = format!("--{}", literal.split('"').next().unwrap_or_default());
        let is_flag = name.len() > 2
            && name[2..]
                .bytes()
                .all(|b| b == b'-' || b.is_ascii_lowercase());
        assert!(
            !is_flag || flags.iter().any(|&(f, _)| f == name),
            "{source} mentions {name}, which --help does not list"
        );
    }
    let header: String = src
        .lines()
        .take_while(|l| l.starts_with("//!"))
        .map(|l| format!("{}\n", l.strip_prefix("//! ").unwrap_or("")))
        .collect();
    assert!(
        header.contains(&help),
        "{source}: the //! header must quote `--help` verbatim"
    );
    let readme = std::fs::read_to_string(repo.join("README.md")).expect("README.md");
    assert!(
        readme.contains(&help),
        "README.md's command reference must quote `{exe} --help` verbatim"
    );
    help
}
