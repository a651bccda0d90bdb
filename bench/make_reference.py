"""Regenerate bench/reference_data.json from code independent of partdigits.

p(n) comes from Euler's pentagonal recurrence and PL(n) from MacMahon's
product through its sigma_2 recurrence, both written here without the
package; each is first checked on small n against a direct expansion of
its generating product.  The file pins first hits, leading digits and
table digests; the benchmark compares answers against it.

Run:  python3 bench/make_reference.py      (about 10 s)
"""
from __future__ import annotations

import json

from reference import DATA_PATH, digit_text, first_hits, head, heads, table_digest

P_LAST = 30000
PL_LAST = 6000
DIGESTS = {"p": (30000,), "pl": (3000, 4000)}
FIRST_HIT_GRID = (
    [("p", 10, t) for t in (1, 2, 3)]
    + [("p", 16, t) for t in (1, 2)]
    + [("p", 2, t) for t in range(2, 9)]
    + [("pl", 10, t) for t in (1, 2)]
)


def partitions(last: int) -> list[int]:
    vals = [1]
    for n in range(1, last + 1):
        total, k = 0, 1
        while True:
            a = n - k * (3 * k - 1) // 2
            if a < 0:
                break
            b = n - k * (3 * k + 1) // 2
            term = vals[a] + (vals[b] if b >= 0 else 0)
            total += term if k % 2 else -term
            k += 1
        vals.append(total)
    return vals


def plane_partitions(last: int) -> list[int]:
    sig = [0] * (last + 1)
    for d in range(1, last + 1):
        for m in range(d, last + 1, d):
            sig[m] += d * d
    vals = [1]
    for n in range(1, last + 1):
        acc = 0
        for k in range(1, n + 1):
            acc += sig[k] * vals[n - k]
        q, r = divmod(acc, n)
        assert r == 0, n
        vals.append(q)
    return vals


def product_expansion(last: int, exponent) -> list[int]:
    """Coefficients of prod_k (1 - x^k)^(-exponent(k)) up to x^last."""
    series = [1] + [0] * last
    for k in range(1, last + 1):
        for _ in range(exponent(k)):
            for m in range(k, last + 1):
                series[m] += series[m - k]
    return series


def main() -> None:
    p = partitions(P_LAST)
    pl = plane_partitions(PL_LAST)
    assert p[:301] == product_expansion(300, lambda k: 1)
    assert pl[:61] == product_expansion(60, lambda k: k)
    tables = {"p": p, "pl": pl}
    hits = {}
    for kind, base, t in FIRST_HIT_GRID:
        found = first_hits(heads(tables[kind], base, t))
        hits[f"{kind}/{base}/{t}"] = {
            digit_text(h, base): n for h, n in sorted(found.items())
        }
    data = {
        "first_hits": hits,
        "pl_lead10": "".join(str(head(v, 10, 1)) for v in pl),
        "digests": {
            kind: {str(last): table_digest(tables[kind][: last + 1]) for last in lasts}
            for kind, lasts in DIGESTS.items()
        },
    }
    DATA_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA_PATH}")


if __name__ == "__main__":
    main()
