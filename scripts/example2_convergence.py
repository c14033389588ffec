#!/usr/bin/env python3
"""Run the example2 preset and summarize the approach to the origin.

Writes the trajectory CSV next to the script unless --out is given.

    python scripts/example2_convergence.py [--out example2.csv]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from coalseek.analysis import build_block_transforms, lyapunov_value
from coalseek.dynamics import Seeker
from coalseek.scenario import load_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="example2.csv")
    args = parser.parse_args()

    scenario = load_scenario("example2")
    seeker = Seeker(scenario.game)
    params = scenario.params
    if scenario.x_star is not None:
        transforms = build_block_transforms(scenario.game)
        x_star = np.array(scenario.x_star)
        import dataclasses

        params = dataclasses.replace(
            params,
            lyapunov=lambda s: lyapunov_value(scenario.game, s, x_star, transforms),
        )

    traj = seeker.integrate(scenario.initial_state(seeker), params)
    traj.write_csv(args.out)

    print(
        f"integrated {traj.steps} steps ({traj.rejected_steps} rejected, "
        f"{traj.rhs_evals} rhs_evals) to t={traj.final_time:g} in {traj.wall_time:.2f}s"
    )
    print(f"|x(T)|_inf            = {np.abs(traj.final_x).max():.3e}")
    print(f"pseudo-gradient inf   = {traj.pg_norm[-1]:.3e}")
    print(f"disagreement norm     = {traj.gbar_norm[-1]:.3e}")
    if traj.lyapunov is not None:
        print(f"energy V(0) -> V(T)   = {traj.lyapunov[0]:.3e} -> {traj.lyapunov[-1]:.3e}")
    print(f"trajectory written to {args.out}")


if __name__ == "__main__":
    main()
