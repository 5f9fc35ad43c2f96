"""Building scaling profiles as a single difference word on a smooth seed.

No iteration is involved: one operator word applied to a dilated sigmoid
(or kink) converges to the box (or hat) as the word order n grows.  The
tables below track the L1 distance to the exact target.

Run with: python3 demos/limit_sequences.py
"""

from waveq import PRESETS, limit_build, limit_build_report
from waveq.gridfn import GridFunction


def table(preset, delta, orders, resolution):
    rep = limit_build_report(preset, delta, orders, resolution)
    print(f"== {preset} target, {delta} seed, grid 2^-{resolution} ==")
    print("   n    L1 error      max error")
    for n in orders:
        e = rep["errors"][n]
        print(f"  {n:2d}    {e['l1']:.3e}    {e['max']:.3e}")
    print(f"  strictly decreasing: {rep['monotone_l1']}")
    print()


def main():
    orders = (4, 8, 12, 16, 20)
    table("haar", "arctan", orders, 10)
    # the tanh seed saturates on coarse grids; a fine grid keeps the
    # errors distinct all the way to n = 20
    table("haar", "tanh", orders, 18)
    table("b2", "tri", orders, 10)

    # the n = 20 build is visually indistinguishable from the target
    built = limit_build("haar", "tanh", 20, 6)
    target = GridFunction.from_callable(PRESETS["haar"].target, 6, (-1, 2))
    print("sampled values at x = -0.25, 0, 0.25, 0.5, 0.75, 1.0:")
    for label, f in (("built ", built), ("target", target)):
        vals = [f.value_at(x).real for x in (-0.25, 0.0, 0.25, 0.5, 0.75, 1.0)]
        print(f"  {label}: " + "  ".join(f"{v:+.4f}" for v in vals))
    print("the jump points carry the midpoint value 1/2 in both")


if __name__ == "__main__":
    main()
