//! One snapshot-directory contract for every front end.
//!
//! A lint or coverage verdict only means something relative to the
//! snapshot the analysis actually read, so `batnet-lint`, `batnet-cov`,
//! `batnet-repair` and `batnet-diff` (which reads through
//! `Snapshot::from_dir`, as the service's uploads do) must agree on what
//! a directory contains. The directory below has everything that used to
//! make them disagree: a subdirectory, a dangling symlink, a non-UTF-8
//! file, and two files with the same stem.

use batnet::obs::json::{self, Value};
use batnet::Snapshot;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn router(name: &str, subnet: u8, acl_port: u16) -> String {
    format!(
        "hostname {name}\n\
         interface e0\n ip address 10.{subnet}.0.1/24\n ip access-group MISSING in\n\
         ip access-list extended EDGE\n 10 permit tcp any any eq {acl_port}\n"
    )
}

/// Writes the awkward directory; `acl_port` varies the ACL so two
/// directories differ structurally on every device.
fn write_dir(dir: &Path, acl_port: u16) {
    std::fs::create_dir_all(dir.join("sub")).expect("mkdir");
    std::fs::write(dir.join("sub").join("r9.cfg"), router("r9", 9, acl_port)).expect("write");
    #[cfg(unix)]
    std::os::unix::fs::symlink("nowhere", dir.join("dangling.cfg")).expect("symlink");
    std::fs::write(dir.join("junk.cfg"), [0xFFu8, 0xFE, 0x00, 0x9F]).expect("write");
    // `r1.flat` sorts first and wins the name; `r1.ios` is the duplicate.
    std::fs::write(dir.join("r1.flat"), router("r1", 1, acl_port)).expect("write");
    std::fs::write(dir.join("r1.ios"), router("r1", 7, acl_port)).expect("write");
    std::fs::write(dir.join("r2.cfg"), router("r2", 2, acl_port)).expect("write");
}

/// Every string found under `key`, anywhere in the document.
fn strings_at(v: &Value, key: &str, out: &mut BTreeSet<String>) {
    match v {
        Value::Obj(m) => {
            for (k, child) in m {
                match child {
                    Value::Str(s) if k == key && !s.is_empty() => drop(out.insert(s.clone())),
                    _ => strings_at(child, key, out),
                }
            }
        }
        Value::Arr(items) => items.iter().for_each(|c| strings_at(c, key, out)),
        _ => {}
    }
}

/// The `(device, code)` pairs of the `quarantined <device> (<stage>):
/// <code>` lines a front end printed on stderr.
fn quarantine_lines(stderr: &str) -> BTreeSet<(String, String)> {
    stderr
        .lines()
        .filter_map(|l| l.split_once(": quarantined "))
        .map(|(_, rest)| {
            let (device, rest) = rest.split_once(" (").expect("device (stage)");
            let (_, code) = rest.split_once("): ").expect("(stage): code");
            (device.to_string(), code.to_string())
        })
        .collect()
}

#[test]
fn every_front_end_reads_the_same_snapshot_directory() {
    let base = std::env::temp_dir().join(format!("batnet-loader-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (dir, changed) = (base.join("a"), base.join("b"));
    write_dir(&dir, 80);
    write_dir(&changed, 443);
    let (d, c) = (
        dir.to_str().expect("utf-8 path"),
        changed.to_str().expect("utf-8 path"),
    );

    // The reference: the library loader the diff CLI and the service use.
    let snapshot = Snapshot::from_dir(&dir).expect("directory lists");
    let devices: BTreeSet<String> = snapshot.devices.iter().map(|d| d.name.clone()).collect();
    let quarantined: BTreeSet<(String, String)> = snapshot
        .quarantined
        .iter()
        .map(|q| (q.device.clone(), q.reason.code().to_string()))
        .collect();
    assert_eq!(
        devices,
        BTreeSet::from(["r1".to_string(), "r2".to_string()])
    );
    assert_eq!(
        quarantined,
        BTreeSet::from([
            ("junk".to_string(), "not-utf8".to_string()),
            ("r1".to_string(), "duplicate-name".to_string()),
        ])
    );

    // (front end, arguments, the section of its JSON output whose
    // `device` members name what it analyzed — "" = the whole document;
    // `None` = a unified diff, whose `--- a/<device>.cfg` lines do).
    let lint = env!("CARGO_BIN_EXE_batnet-lint");
    let cov = env!("CARGO_BIN_EXE_batnet-cov");
    let diff = env!("CARGO_BIN_EXE_batnet-diff");
    let repair = env!("CARGO_BIN_EXE_batnet-repair");
    let table: [(&str, Vec<&str>, Option<&str>); 5] = [
        (lint, vec!["--dir", d, "--format", "json"], Some("")),
        (cov, vec!["--dir", d, "--format", "json"], Some("")),
        (
            diff,
            vec!["--before", d, "--after", c, "--format", "json"],
            Some("structural"),
        ),
        (
            repair,
            vec![
                "--dir",
                d,
                "--check",
                "undefined-reference",
                "--device",
                "r1",
            ],
            None,
        ),
        (
            repair,
            vec![
                "--dir",
                d,
                "--check",
                "undefined-reference",
                "--device",
                "r2",
            ],
            None,
        ),
    ];
    let mut repaired = BTreeSet::new();
    for (exe, args, section) in table {
        let out = Command::new(exe)
            .args(&args)
            .output()
            .expect("front end runs");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(0), "{exe} {args:?}: {stderr}");
        assert_eq!(
            quarantine_lines(&stderr),
            quarantined,
            "{exe} {args:?}: {stderr}"
        );
        match section {
            Some(section) => {
                let doc = json::parse(&stdout).expect("JSON output");
                let mut seen = BTreeSet::new();
                strings_at(doc.get(section).unwrap_or(&doc), "device", &mut seen);
                assert_eq!(seen, devices, "{exe} {args:?} saw different devices");
            }
            None => repaired.extend(
                stdout
                    .lines()
                    .filter_map(|l| l.strip_prefix("--- a/")?.strip_suffix(".cfg"))
                    .map(str::to_string),
            ),
        }
    }
    assert_eq!(
        repaired, devices,
        "batnet-repair patched a different device set"
    );

    let _ = std::fs::remove_dir_all(&base);
}
