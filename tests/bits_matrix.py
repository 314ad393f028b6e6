"""Print one sha256 over the package's seeded outputs, to check that a change keeps every bit.

Run it on two trees and compare the digests:

    PYTHONPATH=src python tests/bits_matrix.py

It hashes, in order:
  - 1134 `run_campaign` results of 37 runs each (eps_true, eps_hat and final sigmas): the
    reference, ideal and (alpha 0.1, beta 0.7, T 3 us) models as truth x update; no process,
    quasistatic, default OU, default 1/f, OU with band (2, 1e5), OU with 9 octaves and 1/f
    with a 5 ms correlation time; n in {0, 3, 14, 15, 16, 20}; seeds {0, 3, 2**70 + 5};
  - quasistatic `closed_loop_track` fringes (n = 8, 50 cycles, 200 repetitions) at 3 seeds;
  - every file the five subcommands write at their defaults, seeds 0 and 3, CSV and JSON;
  - default OU and 1/f `closed_loop_track` fringes, the same tracks otherwise, on their own.

It prints the campaign matrix's own digest first (e9a6bc38...4a2e since it was set up), then
the digest of the first three, then the drift tracks' digest, then one digest per subcommand
over its own files, so that a declared change can show which subcommands it moved.  For a
subcommand that also writes <output>.summary.json it then prints the digest of its primary
files and that of its summaries apart, so that a change to a summary alone shows as one.  Last
it prints the campaign matrix's digest again with `_tree_depth` forced to 0, so that every shot
is computed and none read from the outcome tree.  That line must equal the first: the tree only
caches the computed shot, and its depth changes time, never bits.  The script exits 1 where it
does not, and 0 otherwise.  The name keeps pytest from collecting it.  It takes a few seconds.
"""

import hashlib
import itertools
import sys
import tempfile
from pathlib import Path
from unittest import mock

from freqtrack import cli, experiments
from freqtrack.estimator import IDEAL_MODEL, REFERENCE_MODEL, GaussianBelief, LikelihoodModel
from freqtrack.experiments import CampaignConfig, closed_loop_track, run_campaign
from freqtrack.qubitsim import NoiseProcess

MODELS = (REFERENCE_MODEL, IDEAL_MODEL, LikelihoodModel(alpha=0.1, beta=0.7, T=3e-6))
PROCESSES = (
    None,
    NoiseProcess(),
    NoiseProcess(kind="ou_drift"),
    NoiseProcess(kind="one_over_f"),
    NoiseProcess(kind="ou_drift", band=(2.0, 1e5)),
    NoiseProcess(kind="ou_drift", octave_count=9),
    NoiseProcess(kind="one_over_f", correlation_time=5e-3),
)
SHOTS = (0, 3, 14, 15, 16, 20)
SEEDS = (0, 3, 2**70 + 5)


def campaign_bits(digest) -> int:
    prior = GaussianBelief(0.0, 1e6)
    count = 0
    for truth, update, noise, n, seed in itertools.product(MODELS, MODELS, PROCESSES, SHOTS, SEEDS):
        stats = run_campaign(CampaignConfig(37, n, prior, truth, update, noise, seed))
        for values in (stats.eps_true, stats.eps_hat, stats.final_sigmas):
            digest.update(values.tobytes())
        count += 1
    return count


def track_bits(digest, noise=NoiseProcess()) -> None:
    for seed in (0, 1, 7):
        for record in closed_loop_track(noise, 8, 50, 7e-6, IDEAL_MODEL, seed):
            digest.update(record.tau_values.tobytes() + record.flip_fractions.tobytes())


def cli_bits(digest) -> tuple[dict, dict]:
    """Feed every CLI file to digest; return each subcommand's own digest of its files, and
    the digests of its primary files and of its summaries, keyed (command, "primary" or "summary")."""
    commands = {command: hashlib.sha256() for command in cli.COMMANDS}
    parts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, seed, fmt in itertools.product(cli.COMMANDS, (0, 3), ("csv", "json")):
            out = Path(tmp, f"{command}-{seed}.{fmt}")
            argv = [command, "--seed", str(seed), "--format", fmt, "--output", str(out)]
            if cli.main(argv) != 0:
                sys.exit(f"freqtrack {' '.join(argv)} failed")
            for path in sorted(Path(tmp).iterdir()):
                chunk = path.name.encode() + b"\0" + path.read_bytes()
                digest.update(chunk)
                commands[command].update(chunk)
                kind = "summary" if path.name.endswith(".summary.json") else "primary"
                parts.setdefault((command, kind), hashlib.sha256()).update(chunk)
                path.unlink()
    return commands, parts


def main() -> None:
    matrix = hashlib.sha256()
    campaigns = campaign_bits(matrix)
    digest = hashlib.sha256(matrix.digest())
    track_bits(digest)
    commands, parts = cli_bits(digest)
    drift = hashlib.sha256()
    for kind in ("ou_drift", "one_over_f"):
        track_bits(drift, NoiseProcess(kind=kind))
    print(f"{matrix.hexdigest()}  ({campaigns} campaigns)")
    print(f"{digest.hexdigest()}  (the campaigns, 3 tracks, {len(cli.COMMANDS) * 4} CLI runs)")
    print(f"{drift.hexdigest()}  (3 OU and 3 1/f tracks)")
    for command, own in commands.items():
        print(f"{own.hexdigest()}  ({command}: seeds 0 and 3, CSV and JSON)")
    for command in cli.COMMANDS:
        if (command, "summary") in parts:
            print(f"{parts[command, 'primary'].hexdigest()}  ({command}: its primary files alone)")
            print(f"{parts[command, 'summary'].hexdigest()}  ({command}: its summaries alone)")
    computed = hashlib.sha256()
    with mock.patch.object(experiments, "_tree_depth", lambda n, k: 0):
        campaign_bits(computed)
    print(f"{computed.hexdigest()}  (the campaigns, every shot computed: equals the first line)")
    if computed.digest() != matrix.digest():
        sys.exit("the campaigns with every shot computed differ from the tabulated ones")


if __name__ == "__main__":
    main()
