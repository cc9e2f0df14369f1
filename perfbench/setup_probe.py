"""Set up one workload in a fresh interpreter, so that imports are timed too.

Usage: python3 setup_probe.py <workload> <seed> [<data dir for edge-live>]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    if workload == "train-sweep":
        import clusters

        clusters.heart_like(seed)
    elif workload == "sim-outage":
        from edgectx.data import synth_still_motion

        import offline

        for node in offline.outage_scenario(seed)["nodes"]:
            source = node["source"]
            synth_still_motion(int(source["n"]), int(source["seed"]),
                               motion_fraction=float(source.get("motion_fraction", 0.15)))
    elif workload == "edge-live":
        import live

        live.publish_v1(seed, Path(argv[2]))
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
