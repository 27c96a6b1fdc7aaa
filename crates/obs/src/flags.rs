//! Declarative command-line flags: one table per binary, one parser,
//! one generated `--help`, one exit code for misuse.
//!
//! Every batnet binary declares a `static` [`Cli`] — its name, a short
//! description, and a table of typed [`Flag`]s — and calls
//! [`Cli::parse_env`]. The parser validates each value against the
//! flag's [`Kind`] (integers parse, choices are members of their closed
//! set), so the binary reads already-checked values through
//! [`Parsed`]'s accessors. `--help` prints the usage generated from the
//! same table and exits 0; an unknown flag, a missing value, or a value
//! of the wrong kind prints the error plus that usage on stderr and
//! exits 2. The README's command reference and each binary's header
//! comment are checked against the generated text (`tests/cli.rs`), so
//! the table is the single source of truth.
//!
//! The module lives here because `batnet-obs` is the one crate every
//! binary in the workspace already depends on (it hosts the shared
//! [`crate::json`] module for the same reason).

use std::collections::BTreeMap;

/// What a flag's value must look like.
pub enum Kind {
    /// No value: present or absent.
    Switch,
    /// Any string; the metavar names it in the usage.
    Text(&'static str),
    /// An integer no smaller than `min` (0 or 1 in practice).
    Uint { min: u64 },
    /// One member of a closed set.
    Choice(&'static [&'static str]),
}

/// One row of a binary's flag table.
pub struct Flag {
    /// The flag as typed, dashes included (`--format`).
    pub name: &'static str,
    /// Value shape.
    pub kind: Kind,
    /// One-line description for the generated help.
    pub help: &'static str,
}

impl Flag {
    const fn new(name: &'static str, kind: Kind, help: &'static str) -> Flag {
        Flag { name, kind, help }
    }

    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Kind::Switch, help)
    }

    /// A flag that takes a free-form string.
    pub const fn text(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Kind::Text(metavar), help)
    }

    /// A flag that takes a non-negative integer.
    pub const fn uint(name: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Kind::Uint { min: 0 }, help)
    }

    /// A flag that takes an integer of at least 1.
    pub const fn positive(name: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Kind::Uint { min: 1 }, help)
    }

    /// A flag whose value is one of `choices`.
    pub const fn choice(name: &'static str, choices: &'static [&'static str], help: &'static str) -> Flag {
        Flag::new(name, Kind::Choice(choices), help)
    }

    /// The left-hand column of this flag's help line.
    fn synopsis(&self) -> String {
        match self.kind {
            Kind::Switch => self.name.to_string(),
            Kind::Text(metavar) => format!("{} {metavar}", self.name),
            Kind::Uint { .. } => format!("{} N", self.name),
            Kind::Choice(set) => format!("{} {}", self.name, set.join("|")),
        }
    }

    /// Checks `value` against the flag's kind.
    fn check(&self, value: &str) -> Result<(), String> {
        match self.kind {
            Kind::Uint { min } if !value.parse::<u64>().is_ok_and(|n| n >= min) => Err(format!(
                "{} wants an integer >= {min}, got '{value}'",
                self.name
            )),
            Kind::Choice(set) if !set.contains(&value) => Err(format!(
                "{} must be {}, got '{value}'",
                self.name,
                set.join("|")
            )),
            _ => Ok(()),
        }
    }
}

/// The flags shared across binaries, so `--net`, `--dir`, `--out`,
/// `--threads`, and `--deadline-ms` mean (and read) the same everywhere.
pub const NET: Flag = Flag::text(
    "--net",
    "ID",
    "suite network to load (N2, NET1, N3 ... N11)",
);
/// See [`NET`].
pub const DIR: Flag = Flag::text(
    "--dir",
    "PATH",
    "snapshot directory: one config file per device, file stem = device name",
);
/// See [`NET`].
pub const OUT: Flag = Flag::text(
    "--out",
    "FILE",
    "write the output to FILE instead of stdout",
);
/// See [`NET`].
pub const THREADS: Flag = Flag::uint(
    "--threads",
    "size of the shared execution pool (0 or omitted = all cores)",
);
/// See [`NET`].
pub const DEADLINE_MS: Flag = Flag::uint(
    "--deadline-ms",
    "wall-clock budget; a blown deadline yields a partial result, never a hang",
);

/// A binary's command line: its name, what it does, and its flag table.
pub struct Cli {
    /// Binary name as invoked.
    pub bin: &'static str,
    /// What the binary does and how its flags combine (may span lines).
    pub about: &'static str,
    /// Positional-argument usage (`"FILE..."`); empty when none are taken.
    pub positional: &'static str,
    /// The flag table.
    pub flags: &'static [Flag],
}

/// Why [`Cli::parse`] stopped without a [`Parsed`].
#[derive(Debug)]
pub enum Stop {
    /// `--help` was asked for: print the usage, exit 0.
    Help,
    /// The command line is malformed: print the message and the usage,
    /// exit 2.
    Usage(String),
}

impl Cli {
    /// The generated help text: synopsis, description, one line per flag.
    pub fn usage(&self) -> String {
        let mut rows: Vec<(String, &str)> =
            self.flags.iter().map(|f| (f.synopsis(), f.help)).collect();
        rows.push(("--help".to_string(), "print this help and exit"));
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut out = format!("usage: {} [OPTIONS]", self.bin);
        if !self.positional.is_empty() {
            out.push(' ');
            out.push_str(self.positional);
        }
        out.push_str("\n\n");
        out.push_str(self.about);
        out.push_str("\n\noptions:\n");
        for (left, help) in rows {
            out.push_str(&format!("  {left:width$}  {help}\n"));
        }
        out
    }

    /// Parses `argv` (without the program name) against the table.
    pub fn parse(&self, argv: &[String]) -> Result<Parsed<'_>, Stop> {
        let mut parsed = Parsed {
            cli: self,
            values: BTreeMap::new(),
            args: Vec::new(),
            cmdline: format!("{} {}", self.bin, argv.join(" ")),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help);
            }
            if !arg.starts_with("--") {
                if self.positional.is_empty() {
                    return Err(Stop::Usage(format!("unexpected argument '{arg}'")));
                }
                parsed.args.push(arg.clone());
                continue;
            }
            let flag = self
                .flags
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| Stop::Usage(format!("unknown flag '{arg}'")))?;
            let value = match flag.kind {
                Kind::Switch => String::new(),
                _ => it
                    .next()
                    .cloned()
                    .ok_or_else(|| Stop::Usage(format!("{arg} needs a value")))?,
            };
            flag.check(&value).map_err(Stop::Usage)?;
            parsed.values.insert(flag.name, value);
        }
        Ok(parsed)
    }

    /// Parses the process's own command line. `--help` prints the usage
    /// and exits 0; a malformed command line exits 2 via [`Cli::fail`].
    pub fn parse_env(&self) -> Parsed<'_> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match self.parse(&argv) {
            Ok(parsed) => parsed,
            Err(Stop::Help) => {
                print!("{}", self.usage());
                std::process::exit(0);
            }
            Err(Stop::Usage(msg)) => self.fail(&msg),
        }
    }

    /// A binary's whole `main`: parse the command line, run, and report
    /// a runtime error as `<bin>: <message>` with exit code 2 (usage and
    /// I/O errors share it; `run` returns its own code for verdicts).
    pub fn main(
        &self,
        run: impl FnOnce(&Parsed<'_>) -> Result<std::process::ExitCode, String>,
    ) -> std::process::ExitCode {
        run(&self.parse_env()).unwrap_or_else(|msg| {
            eprintln!("{}: {msg}", self.bin);
            std::process::ExitCode::from(2)
        })
    }

    /// The one misuse exit: the message and the generated usage on
    /// stderr, exit code 2. Binaries call it for the constraints a table
    /// cannot express (flags that go together, required positionals).
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n{}", self.bin, self.usage());
        std::process::exit(2);
    }
}

/// A parsed command line. Accessors take the flag name as declared; a
/// name missing from the table is a bug in the binary and panics.
pub struct Parsed<'a> {
    cli: &'a Cli,
    values: BTreeMap<&'static str, String>,
    /// Positional arguments, in order.
    pub args: Vec<String>,
    /// The command line as typed (`<bin> <args...>`), for provenance
    /// stamps.
    pub cmdline: String,
}

impl Parsed<'_> {
    /// The value of a [`Kind::Text`] or [`Kind::Choice`] flag (for a
    /// [`Kind::Switch`], an empty string when given).
    pub fn text(&self, name: &str) -> Option<&str> {
        assert!(
            self.cli.flags.iter().any(|f| f.name == name),
            "{}: flag {name} is not in the table",
            self.cli.bin
        );
        self.values.get(name).map(String::as_str)
    }

    /// Was the flag given? (The accessor for a [`Kind::Switch`].)
    pub fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value of a [`Kind::Uint`] flag as `T`. The text already
    /// parsed as its kind; a value too large for `T` is misuse and
    /// exits 2.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.text(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.cli.fail(&format!("{name}: '{v}' is out of range")))
        })
    }
}

/// Writes a rendered artifact to `--out FILE`, or to stdout when the
/// flag was not given.
pub fn emit(out: Option<&str>, text: &str) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static CLI: Cli = Cli {
        bin: "demo",
        about: "A demo.",
        positional: "FILE...",
        flags: &[
            Flag::choice("--format", &["text", "json"], "output format"),
            Flag::uint("--seed", "perturbation seed"),
            Flag::positive("--victims", "victims per run"),
            Flag::switch("--force", "compare anyway"),
            OUT,
        ],
    };

    fn parse(args: &[&str]) -> Result<Parsed<'static>, Stop> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        CLI.parse(&argv)
    }

    #[test]
    fn typed_values_switches_and_positionals() {
        let p = parse(&[
            "a.json", "--format", "json", "--seed", "7", "--force", "b.json",
        ])
        .expect("parses");
        assert_eq!(p.text("--format"), Some("json"));
        assert_eq!(p.num::<u64>("--seed"), Some(7));
        assert_eq!(p.num::<u64>("--victims"), None);
        assert!(p.has("--force"));
        assert!(!p.has("--out"));
        assert_eq!(p.args, ["a.json", "b.json"]);
    }

    #[test]
    fn misuse_is_a_usage_error_and_help_is_not() {
        assert!(matches!(parse(&["--help"]), Err(Stop::Help)));
        assert!(matches!(parse(&["x", "-h"]), Err(Stop::Help)));
        for bad in [
            &["--nope"][..],
            &["--format"],
            &["--format", "yaml"],
            &["--seed", "-1"],
            &["--seed", "many"],
            &["--victims", "0"],
        ] {
            assert!(
                matches!(parse(bad), Err(Stop::Usage(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn usage_lists_every_flag_with_its_shape() {
        let usage = CLI.usage();
        assert!(
            usage.starts_with("usage: demo [OPTIONS] FILE...\n"),
            "{usage}"
        );
        for needle in [
            "--format text|json",
            "--seed N",
            "--victims N",
            "--force  ",
            "--out FILE",
            "--help",
        ] {
            assert!(usage.contains(needle), "usage lacks {needle:?}:\n{usage}");
        }
    }
}
