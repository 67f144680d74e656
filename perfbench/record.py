"""Record reference outputs for the benchmark's correctness gate.

    PYTHONPATH=src python3 perfbench/record.py --workload protocol --seeds 0-99
    PYTHONPATH=src python3 perfbench/record.py --workload pipeline-c4 --seeds 7 --smoke

Outputs are computed through the library functions (``expected`` in
``workloads.py``) at the checked-out commit and merged into
``perfbench/reference.json``, keyed by split seed. The benchmark gates every
pass against them and picks its split seeds among those recorded; a seed
whose run fails is recorded with its error type and never picked.
Re-record only for an intended change of results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os

import workloads
from run import git_commit

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def write(table: dict) -> None:
    # One seed per line keeps the file diffable.
    lines = ["{"]
    modes = sorted(k for k in table if k != "commit")
    lines.append(f' "commit": {json.dumps(table.get("commit"))}' + ("," if modes else ""))
    for i, mode in enumerate(modes):
        lines.append(f' "{mode}": {{')
        names = sorted(table[mode])
        for j, name in enumerate(names):
            lines.append(f'  "{name}": {{')
            seeds = sorted(table[mode][name], key=int)
            for k, seed in enumerate(seeds):
                entry = json.dumps(table[mode][name][seed], sort_keys=True)
                lines.append(f'   "{seed}": {entry}' + ("," if k < len(seeds) - 1 else ""))
            lines.append("  }" + ("," if j < len(names) - 1 else ""))
        lines.append(" }" + ("," if i < len(modes) - 1 else ""))
    lines.append("}")
    tmp = REFERENCE + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, REFERENCE)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", required=True, help="one seed or an inclusive range a-b")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)
    table["commit"] = git_commit(os.path.dirname(HERE))
    mode = "smoke" if args.smoke else "full"
    for seed in seed_range(args.seeds):
        workload = workloads.make(args.workload, "", seed, args.smoke)
        entry = workload.expected()
        table.setdefault(mode, {}).setdefault(args.workload, {})[str(workload.split_seed)] = entry
        write(table)
        print(f"{args.workload} split seed {workload.split_seed}: {entry.get('error', 'ok')}",
              flush=True)


if __name__ == "__main__":
    main()
