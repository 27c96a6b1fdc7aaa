//! Seeded, deterministic fault injectors.
//!
//! Each mutation class models a real failure mode seen by configuration
//! analysis pipelines in production: truncated file transfers, duplicated
//! stanzas from bad merges, binary garbage, partial deletions, dangling
//! references, and links flapping while the analysis runs. The same
//! `(class, seed)` pair always produces the same mutation.

use batnet_net::Rng;
use batnet_routing::Environment;

/// One class of injected fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationClass {
    /// Cut the config off mid-file (interrupted transfer).
    TruncateLines,
    /// Duplicate a block of lines in place (bad merge).
    DuplicateLines,
    /// Splice garbage bytes into the text (corruption).
    GarbageBytes,
    /// Delete one top-level stanza (partial rollout).
    DeleteStanza,
    /// Add statements referencing structures that do not exist.
    UndefinedReference,
    /// Fail a random set of links in the environment (mid-analysis
    /// flaps: the harness analyzes the flapped and restored states
    /// back-to-back).
    LinkFlap,
}

impl MutationClass {
    /// Every class, in a stable order.
    pub const ALL: [MutationClass; 6] = [
        MutationClass::TruncateLines,
        MutationClass::DuplicateLines,
        MutationClass::GarbageBytes,
        MutationClass::DeleteStanza,
        MutationClass::UndefinedReference,
        MutationClass::LinkFlap,
    ];

    /// Stable name (CLI argument / report key).
    pub fn name(&self) -> &'static str {
        match self {
            MutationClass::TruncateLines => "truncate",
            MutationClass::DuplicateLines => "duplicate",
            MutationClass::GarbageBytes => "garbage",
            MutationClass::DeleteStanza => "delete-stanza",
            MutationClass::UndefinedReference => "undefined-ref",
            MutationClass::LinkFlap => "link-flap",
        }
    }

    /// Parses a class name as produced by [`MutationClass::name`].
    pub fn from_name(s: &str) -> Option<MutationClass> {
        MutationClass::ALL.iter().copied().find(|c| c.name() == s)
    }

    /// Does this class corrupt config text (as opposed to the
    /// environment)?
    pub fn mutates_text(&self) -> bool {
        !matches!(self, MutationClass::LinkFlap)
    }
}

/// The outcome of applying a mutation to a network.
pub struct Mutation {
    /// Mutated `(hostname, config text)` pairs (all devices; only the
    /// victims differ from the input).
    pub configs: Vec<(String, String)>,
    /// Mutated environment (differs only for [`MutationClass::LinkFlap`]).
    pub env: Environment,
    /// Names of the devices whose config text was corrupted. Empty for
    /// environment-only mutations.
    pub victims: Vec<String>,
}

/// Applies `class` with `seed` to `k` victim devices (capped at the
/// network size). Deterministic: same inputs, same output.
pub fn mutate(
    configs: &[(String, String)],
    env: &Environment,
    class: MutationClass,
    seed: u64,
    k: usize,
) -> Mutation {
    let mut rng = Rng::new(seed ^ 0xC4A0_5EED ^ (class as u64) << 32);
    let mut out: Vec<(String, String)> = configs.to_vec();
    let mut env = env.clone();
    let mut victims = Vec::new();
    if out.is_empty() {
        return Mutation {
            configs: out,
            env,
            victims,
        };
    }
    match class {
        MutationClass::LinkFlap => {
            // Fail 1..=3 random interfaces network-wide.
            let flaps = 1 + rng.below(3) as usize;
            for _ in 0..flaps {
                let vi = rng.index(out.len());
                let (name, text) = &out[vi];
                let ifaces: Vec<&str> = text
                    .lines()
                    .filter_map(|l| l.strip_prefix("interface "))
                    .map(str::trim)
                    .collect();
                if ifaces.is_empty() {
                    continue;
                }
                let iface = ifaces[rng.index(ifaces.len())].to_string();
                env.failed_interfaces.push((name.clone(), iface));
            }
        }
        _ => {
            let k = k.clamp(1, out.len());
            // Distinct victims, deterministic order.
            let mut picks: Vec<usize> = (0..out.len()).collect();
            rng.shuffle(&mut picks);
            picks.truncate(k);
            picks.sort_unstable();
            for vi in picks {
                let (name, text) = &out[vi];
                let mutated = mutate_text(text, class, &mut rng);
                victims.push(name.clone());
                out[vi] = (name.clone(), mutated);
            }
        }
    }
    Mutation {
        configs: out,
        env,
        victims,
    }
}

/// Corrupts one config text with `class`.
fn mutate_text(text: &str, class: MutationClass, rng: &mut Rng) -> String {
    let lines: Vec<&str> = text.lines().collect();
    match class {
        MutationClass::TruncateLines => {
            // Keep a random prefix — possibly zero lines — and cut the
            // last kept line in half to model a mid-line cutoff.
            let keep = rng.index(lines.len() + 1);
            let mut kept: Vec<String> = lines[..keep].iter().map(|s| s.to_string()).collect();
            if let Some(last) = kept.last_mut() {
                // len/2 of ASCII config text is a boundary; walk back for
                // the rare multi-byte case.
                let mut cut = last.len() / 2;
                while cut > 0 && !last.is_char_boundary(cut) {
                    cut -= 1;
                }
                last.truncate(cut);
            }
            kept.join("\n")
        }
        MutationClass::DuplicateLines => {
            if lines.is_empty() {
                return String::new();
            }
            let start = rng.index(lines.len());
            let len = 1 + rng.index((lines.len() - start).min(8));
            let mut out: Vec<&str> = Vec::with_capacity(lines.len() + len);
            out.extend_from_slice(&lines[..start + len]);
            out.extend_from_slice(&lines[start..start + len]); // the duplicate
            out.extend_from_slice(&lines[start + len..]);
            out.join("\n")
        }
        MutationClass::GarbageBytes => {
            // One time in three the whole file is junk (a binary blob
            // where a config should be) — this is the case that must
            // land in quarantine. Otherwise splice runs of garbage at
            // 1..=4 random positions (char-boundary safe: positions are
            // line starts).
            if rng.chance(1, 3) {
                let blob_lines = 4 + rng.index(24);
                return (0..blob_lines)
                    .map(|_| {
                        let len = 8 + rng.index(56);
                        (0..len)
                            .map(|_| {
                                let b = rng.below(96) as u8;
                                if b < 8 {
                                    (1 + b) as char
                                } else {
                                    (33 + (b % 90)) as char
                                }
                            })
                            .collect::<String>()
                    })
                    .collect::<Vec<_>>()
                    .join("\n");
            }
            let mut out: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
            let splices = 1 + rng.below(4) as usize;
            for _ in 0..splices {
                let pos = rng.index(out.len().max(1));
                let len = 3 + rng.index(24);
                let garbage: String = (0..len)
                    .map(|_| {
                        let b = rng.below(96) as u8;
                        // Mix of control chars and high-ASCII noise.
                        if b < 8 {
                            (1 + b) as char
                        } else {
                            (33 + (b % 90)) as char
                        }
                    })
                    .collect();
                if pos < out.len() {
                    out[pos] = format!("{garbage}{}", out[pos]);
                } else {
                    out.push(garbage);
                }
            }
            out.join("\n")
        }
        MutationClass::DeleteStanza => {
            // Top-level stanza boundaries: lines with no leading space.
            let heads: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.is_empty() && !l.starts_with(' '))
                .map(|(i, _)| i)
                .collect();
            if heads.is_empty() {
                return String::new();
            }
            let hi = rng.index(heads.len());
            let start = heads[hi];
            let end = heads.get(hi + 1).copied().unwrap_or(lines.len());
            let mut out: Vec<&str> = Vec::with_capacity(lines.len());
            out.extend_from_slice(&lines[..start]);
            out.extend_from_slice(&lines[end..]);
            out.join("\n")
        }
        MutationClass::UndefinedReference => {
            // Append an interface and a zone-pair carrying references to
            // structures that do not exist anywhere in the config.
            let n = rng.below(200);
            format!(
                "{text}\ninterface Chaos{n}\n ip address 10.254.{}.1/24\n ip access-group CHAOS_MISSING_{n} in\n ip access-group CHAOS_MISSING_OUT_{n} out\nzone-pair security CHAOS_IN_{n} CHAOS_OUT_{n} acl CHAOS_MISSING_ZONE_{n}\n",
                n % 250
            )
        }
        MutationClass::LinkFlap => text.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfgs() -> Vec<(String, String)> {
        vec![
            (
                "a".to_string(),
                "hostname a\ninterface e0\n ip address 10.0.0.1/24\nip route 0.0.0.0/0 10.0.0.2\n"
                    .to_string(),
            ),
            (
                "b".to_string(),
                "hostname b\ninterface e0\n ip address 10.0.0.2/24\n".to_string(),
            ),
        ]
    }

    #[test]
    fn deterministic_per_seed() {
        for class in MutationClass::ALL {
            let m1 = mutate(&cfgs(), &Environment::none(), class, 7, 1);
            let m2 = mutate(&cfgs(), &Environment::none(), class, 7, 1);
            assert_eq!(m1.configs, m2.configs, "{}", class.name());
            assert_eq!(m1.victims, m2.victims, "{}", class.name());
            assert_eq!(
                m1.env.failed_interfaces, m2.env.failed_interfaces,
                "{}",
                class.name()
            );
        }
    }

    #[test]
    fn text_classes_change_victim_only() {
        for class in MutationClass::ALL.iter().filter(|c| c.mutates_text()) {
            let m = mutate(&cfgs(), &Environment::none(), *class, 3, 1);
            assert_eq!(m.victims.len(), 1, "{}", class.name());
            let changed = m
                .configs
                .iter()
                .zip(cfgs())
                .filter(|(a, b)| a.1 != b.1)
                .count();
            assert!(changed <= 1, "{}: at most the victim changes", class.name());
        }
    }

    #[test]
    fn undefined_ref_plants_an_undefined_zone_acl() {
        let m = mutate(&cfgs(), &Environment::none(), MutationClass::UndefinedReference, 3, 1);
        let (name, text) = m.configs.iter().find(|(n, _)| *n == m.victims[0]).expect("victim");
        let device = batnet_config::parse_device(name, text).0;
        let paths: Vec<String> =
            batnet::lint::undefined_references(&device).into_iter().map(|f| f.path).collect();
        assert_eq!(paths.len(), 3, "{paths:?}");
        assert!(paths.iter().any(|p| p.starts_with("zone-policy CHAOS_IN_")), "{paths:?}");
    }

    #[test]
    fn link_flap_touches_env_not_text() {
        let m = mutate(&cfgs(), &Environment::none(), MutationClass::LinkFlap, 5, 1);
        assert_eq!(m.configs, cfgs());
        assert!(m.victims.is_empty());
        assert!(!m.env.failed_interfaces.is_empty());
    }

    #[test]
    fn class_names_round_trip() {
        for class in MutationClass::ALL {
            assert_eq!(MutationClass::from_name(class.name()), Some(class));
        }
    }
}
