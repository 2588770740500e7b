"""Enumerate the parameter values where period-n orbits are born on the
susceptible axis and check each first window dynamically.

With the infected mass extinct the map restricts to x -> r x (1 - x),
so period-n orbits appear at saddle-node tangencies of the n-th iterate
or, for even n, where an n/2-cycle doubles.  The births for n = 3..7 are
printed with their kind and their r values go to
./demo_out/cycle_births.json; for each first birth the script then
iterates just past it and shows the settled period.
"""

import json
import pathlib

from sirmap import ModelParams, detect_period, find_cycle_births, iterate

OUT = pathlib.Path("demo_out")


def main():
    OUT.mkdir(exist_ok=True)
    table = {}
    for n in range(3, 8):
        births = find_cycle_births(n)
        table[n] = [float(r) for r in births.r_values]
        print(f"n={n}: {len(table[n])} births")
        for r, kind in zip(births.r_values, births.kinds):
            print(f"  r = {r:.7f}  {kind}")

    path = OUT / "cycle_births.json"
    path.write_text(json.dumps(table, indent=2))
    print(f"wrote {path}")

    print("settling just past each first birth (orbit started on the axis):")
    for n, r_values in table.items():
        r = r_values[0] + 1.0e-4
        p = ModelParams(r=r, beta=1.1, a=1.0, K=0.5)
        orb = iterate(p, (0.5, 0.0), n_transient=200_000, n_keep=256)
        print(f"  n={n}: at r = {r:.7f} the orbit settles on period {detect_period(orb)}")


if __name__ == "__main__":
    main()
