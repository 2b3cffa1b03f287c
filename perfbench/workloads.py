"""The benchmark's workloads: fixed CLI invocations of ``hybandit`` plus their inputs.

Each workload is one ``hybandit`` subcommand at a fixed problem shape.  The
workload seed is passed to the CLI as ``--seed`` and, for replay, also seeds
the generated click log; nothing else about the inputs varies between seeds.

Sizes are chosen so one full command takes about 1-3 s on two cores, so a
20 s run repeats it five to ten times.  The replay fit needs 10000 records
for the design's periodic inverse refresh to run once, which makes replay
the slowest command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hybandit.policies import ALGORITHMS

# Horizon of the set-up command: policies reject a horizon below 2, and the
# diagnose report needs two samples per trace, so the set-up command of
# ``diagnose`` samples every one of its rounds.
SETUP_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``rounds`` is the simulated horizon of every trace; the set-up command
    is the same command with the simulation cut to ``SETUP_ROUNDS``.  Every
    workload simulates one environment.
    """

    name: str
    why: str
    command: str  # run | diagnose | replay
    algos: tuple[str, ...]
    d1: int
    d2: int
    n_arms: int
    rounds: int
    flags: tuple[str, ...] = ()
    n_trials: int = 1
    threads: int = 1
    diagnostics_every: int = 0
    train_n: int = 0  # replay: training prefix of the log

    @property
    def n_traces(self) -> int:
        return len(self.algos) * self.n_trials

    @property
    def work(self) -> int:
        """Policy-rounds of one full command: algos x envs (1) x trials x T."""
        return self.n_traces * self.rounds

    def argv(self, seed: int, out_dir: Path, *, setup: bool = False, log: Path | None = None):
        """CLI arguments (after ``hybandit``) of the full or the set-up command."""
        args = [self.command, *self.flags, "--algos", ",".join(self.algos)]
        args += ["--n-trials", str(self.n_trials), "--seed", str(seed)]
        if self.command == "replay":
            args += ["--log", str(log), "--train-n", str(self.train_n)]
        else:
            rounds = SETUP_ROUNDS if setup else self.rounds
            args += ["--n-envs", "1", "--T", str(rounds)]
            args += ["--threads", str(self.threads)]
        if self.diagnostics_every:
            every = 1 if setup else self.diagnostics_every
            args += ["--diagnostics-every", str(every)]
        return [*args, "--out-dir", str(out_dir)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shared_heavy",
            why="setting-1 shape (d1=40, d2=5, K=25) on a 2-worker pool: "
            "Schur-complement scoring dominates a shared policy's round",
            command="run",
            flags=("--setting", "1"),
            algos=ALGORITHMS,
            d1=40,
            d2=5,
            n_arms=25,
            rounds=400,
            n_trials=2,
            threads=2,
        ),
        Workload(
            name="many_arms",
            why="setting 3 at K=400 (d1=d2=5): per-arm work and context generation "
            "dominate while the Schur inverse is cheap",
            command="run",
            flags=("--setting", "3", "--k-grid", "400"),
            algos=ALGORITHMS,
            d1=5,
            d2=5,
            n_arms=400,
            rounds=400,
        ),
        Workload(
            name="diagnose_spectral",
            why="diagnose at d1=d2=10, K=5: the dim-60 sandwich spectrum and the "
            "other diagnostics samples take most of the run",
            command="diagnose",
            flags=("--d1", "10", "--d2", "10", "--K", "5"),
            algos=("hylinucb", "dislinucb"),
            d1=10,
            d2=10,
            n_arms=5,
            rounds=200,
            diagnostics_every=100,
        ),
        Workload(
            name="replay_semi_synthetic",
            why="replay of a generated click log (d1=20, d2=5, K=10): log parse and "
            "the per-record hybrid least-squares fit, then the policies",
            command="replay",
            algos=ALGORITHMS,
            d1=20,
            d2=5,
            n_arms=10,
            rounds=2000,
            train_n=10000,
        ),
    )
}

# Shape of the generated replay log: user features of length DU, arm features
# of length DV, so the shared features u v^T have length DU * DV = d1.
REPLAY_DU = 4
REPLAY_DV = 5


def _unit_ball(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((n, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * rng.random((n, 1)) ** (1.0 / dim)


def write_replay_log(w: Workload, seed: int, path: Path, setup_path: Path) -> None:
    """Write the workload's click log, and the set-up log cut to ``SETUP_ROUNDS`` replay rounds.

    Clicks follow a hidden hybrid model, ``P(click) = clip(0.5 + u^T A v +
    <v, b_arm>, 0, 1)``, for the displayed arm, which is drawn uniformly.
    """
    rng = np.random.default_rng(seed)
    n = w.train_n + w.rounds
    k = w.n_arms
    users = _unit_ball(rng, n, REPLAY_DU)
    arms = _unit_ball(rng, n * k, REPLAY_DV).reshape(n, k, REPLAY_DV)
    a = 0.3 * rng.standard_normal((REPLAY_DU, REPLAY_DV)) / np.sqrt(REPLAY_DU * REPLAY_DV)
    b = 0.2 * _unit_ball(rng, k, REPLAY_DV)
    shown = rng.integers(0, k, size=n)
    v = arms[np.arange(n), shown]
    p = 0.5 + np.einsum("na,ab,nb->n", users, a, v) + np.einsum("nb,nb->n", v, b[shown])
    clicks = (rng.random(n) < np.clip(p, 0.0, 1.0)).astype(int)
    lines = [
        json.dumps(
            {
                "user": users[i].tolist(),
                "arms": arms[i].tolist(),
                "displayed": int(shown[i]) + 1,
                "click": int(clicks[i]),
            },
            separators=(",", ":"),
        )
        + "\n"
        for i in range(n)
    ]
    path.write_text("".join(lines), encoding="utf-8")
    setup_path.write_text("".join(lines[: w.train_n + SETUP_ROUNDS]), encoding="utf-8")
