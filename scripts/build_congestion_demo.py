#!/usr/bin/env python3
"""Regenerate the congestion-demo preset.

The demo is a three-coalition flow-control game on a shared-link network,
sized (1, 3, 6).  Link sharing is chosen so that coalition 3's inferred
interference graph and its declared communication graph match the shape used
by the example2 preset; the published equilibrium of the original network this
demo stands in for is bundled as reference metadata only, since that network's
exact topology is not recoverable.  Run from the repository root:

    python scripts/build_congestion_demo.py > src/coalseek/presets/congestion-demo.json

Importing the module has no side effects; ``build_document()`` returns the
preset as a dict.
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coalseek.expr import render
from coalseek.game import FlowAgent, build_congestion_game

CAPACITY = 20.0
KAPPA = 10.0
U = 10.0

LINKS = {name: CAPACITY for name in (
    "l1",  # coalition 1 <-> agent (3,1)
    "l2", "l3", "l4",          # (3,1) with (3,2), (3,3), (3,6)
    "l5",                      # (3,2) with (3,3)
    "l6", "l7", "l8",          # (3,2) with (3,4), (3,5), (3,6)
    "l9", "l10", "l11",        # (3,3) with (3,4), (3,5), (3,6)
    "l12", "l13", "l14",       # coalition 2 triangle
    "l15",                     # (2,2) <-> (3,6)
)}

AGENTS = [
    FlowAgent(1, ("l1",), U),
    FlowAgent(2, ("l12", "l13"), U),
    FlowAgent(2, ("l12", "l14", "l15"), U),
    FlowAgent(2, ("l13", "l14"), U),
    FlowAgent(3, ("l1", "l2", "l3", "l4"), U),
    FlowAgent(3, ("l2", "l5", "l6", "l7", "l8"), U),
    FlowAgent(3, ("l3", "l5", "l9", "l10", "l11"), U),
    FlowAgent(3, ("l6", "l9"), U),
    FlowAgent(3, ("l7", "l10"), U),
    FlowAgent(3, ("l4", "l8", "l11", "l15"), U),
]

DELTA = 0.5

COMM_EDGES = {
    2: [[1, 2], [1, 3], [2, 3]],
    3: [[1, 2], [1, 3], [2, 4], [2, 5], [2, 6], [3, 4], [3, 5], [3, 6]],
}


def build_document() -> dict:
    game = build_congestion_game(LINKS, AGENTS, kappa=KAPPA, delta=DELTA)
    doc = {
        "schema": "coalseek/scenario-v1",
        "name": "congestion-demo",
        "notes": (
            "Reconstructed flow-control demo on a shared-link network "
            "(capacities 20, kappa=10, u=10). NON-CANONICAL: the original "
            "network's topology is not published; this network is chosen so "
            "that coalition 3's interference and communication graphs match "
            "the documented shape. reference.published_equilibrium is the "
            "equilibrium reported for the original network and is metadata "
            "only, not a target of this demo."
        ),
        "delta": DELTA,
        "coalitions": [],
        "integrator": {
            "method": "dopri5",
            "step": 0.01,
            "horizon": 600.0,
            "record_dt": 5.0,
            "stop_tol": 1e-9,
        },
        "initial_x": [0.5] * 10,
        "seed": 0,
        "reference": {
            "published_equilibrium": [
                12.63, 5.58, 3.68, 6.12, 5.16, 2.03, 2.03, 10.16, 10.16, 5.63
            ],
            "links": {name: CAPACITY for name in LINKS},
            "paths": {
                f"x{a.coalition}_{pos}": list(a.path)
                for a, pos in zip(
                    AGENTS,
                    [1, 1, 2, 3, 1, 2, 3, 4, 5, 6],
                )
            },
            "kappa": KAPPA,
            "u": U,
        },
    }
    for i, c in enumerate(game.coalitions, start=1):
        entry = {
            "costs": [render(f) for f in c.costs],
            "dbar": list(c.dbar),
            "communication": COMM_EDGES.get(i, []),
            "interference": [[j, l] for j, l in c.interference.edge_pairs()],
        }
        doc["coalitions"].append(entry)
    return doc


def main() -> None:
    json.dump(build_document(), sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
