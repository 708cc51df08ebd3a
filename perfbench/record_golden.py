"""Write golden.json: the SHA-256 of ``polygon.to_json`` for every group the
workloads build or query, and of the words ``express`` gives for each
workload's fixed golden element set.

    python3 perfbench/record_golden.py

Run it from the root of a checkout whose outputs are known to be right; the
benchmark then counts every deviation from these digests as a failure.
"""

from __future__ import annotations

import json

import checks
from run import Modpoly
from workloads import WORKLOADS, make_inputs


def main():
    m = Modpoly()
    polygons, words = {}, {}
    groups = dict.fromkeys(g for w in WORKLOADS.values()
                           for g in (*w.builds, w.express_group, w.geo_group))
    for group in groups:
        key = checks.group_key(group)
        poly = m.build(group)
        polygons[key] = checks.sha256(m.polygon.to_json(poly))
        for w in WORKLOADS.values():
            if w.express_group == group and key not in words:
                inputs = make_inputs(w, 0, checks.gen_tuples(poly), checks.gen_tuples(poly),
                                     m.psl2.Psl2Elt, m.reduce.ExactPoint)
                words[key] = checks.words_digest(
                    m.reduce.express(poly, g) for g in inputs.golden_express)
        print(key, polygons[key], words.get(key, ""), flush=True)
    with open(checks.GOLDEN_PATH, "w") as handle:
        json.dump({"polygon_sha256": polygons, "express_words_sha256": words},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
