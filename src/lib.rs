//! Root package of the batnet workspace: the integration tests, the
//! examples, and the command-line front ends (`batnet-lint`,
//! `batnet-cov`, `batnet-repair`, `batnet-diff`, `obs-validate`) — which
//! live here because this is the one package that sees every crate they
//! front. This library holds what those binaries share.

use batnet::{Quarantine, ResourceGovernor};
use batnet_topogen::GeneratedNetwork;
use std::path::Path;
use std::time::Duration;

/// Resolves the `--net ID | --dir PATH` pair every snapshot-reading
/// front end takes: a suite network by id (see
/// [`batnet_topogen::suite::find`]), or a snapshot directory read under
/// [`batnet::load_dir`]'s contract — sorted, symlinks and subdirectories
/// skipped, non-UTF-8 and duplicate-stem files quarantined — so lint and
/// coverage verdicts are about the same devices `batnet-diff` and the
/// service would analyze. A directory comes back as a network named
/// after it, with no environment; its quarantined files are named on
/// stderr as `<bin>: <dir>: quarantined <device> (<stage>): <code>`.
pub fn load_source(
    bin: &str,
    net: Option<&str>,
    dir: Option<&str>,
) -> Result<GeneratedNetwork, String> {
    match (net, dir) {
        (Some(id), None) => Ok((batnet_topogen::suite::find(id)?.build)()),
        (None, Some(dir)) => {
            let load = batnet::load_dir(Path::new(dir)).map_err(|e| format!("--dir {dir}: {e}"))?;
            report_quarantined(bin, dir, &load.quarantined);
            if load.configs.is_empty() {
                return Err(format!("--dir {dir}: no config files"));
            }
            Ok(GeneratedNetwork {
                name: dir.to_string(),
                kind: "dir".to_string(),
                configs: load.configs,
                env: batnet::routing::Environment::none(),
            })
        }
        _ => Err("give exactly one of --net ID or --dir PATH".to_string()),
    }
}

/// Names every quarantined input of `dir` on stderr, one line each.
pub fn report_quarantined(bin: &str, dir: &str, quarantined: &[Quarantine]) {
    for q in quarantined {
        eprintln!(
            "{bin}: {dir}: quarantined {} ({}): {}",
            q.device,
            q.stage,
            q.reason.code()
        );
    }
}

/// The governor a `--deadline-ms` flag asks for: the same enforcement
/// mechanism the analysis pipeline and `batnet-serve` use, so a blown
/// deadline degrades the run to a partial result with accounting.
pub fn governor(deadline_ms: Option<u64>) -> ResourceGovernor {
    match deadline_ms {
        Some(ms) => ResourceGovernor::with_deadline(Duration::from_millis(ms)),
        None => ResourceGovernor::unlimited(),
    }
}
