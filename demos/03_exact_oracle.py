"""Ground truth on small instances.

Solves seeded random instances exactly with the layered dynamic program
(one ternary digit per pair: untouched, on board or delivered; one numpy
layer per visited-node count), cross-checks it against plain enumeration, and
measures how far the greedy constructions land from the optimum as capacity
varies.
"""

import numpy as np

from mpdtsp import (
    Instance,
    brute_force,
    cih_from,
    held_karp,
    nnh_best,
    nnh_from,
    paired_loads,
)


def random_instance(n_pairs: int, capacity: float, seed: int) -> Instance:
    rng = np.random.RandomState(seed)
    coords = rng.uniform(0.0, 1.0, size=(2 * n_pairs + 1, 2))
    return Instance.from_coords(coords, paired_loads([1.0] * n_pairs), capacity)


def main() -> None:
    print("layered DP vs enumeration on 3-pair instances:")
    for seed in range(5):
        inst = random_instance(3, 2.0, seed)
        dp = held_karp(inst)
        enum = brute_force(inst)
        print(f"  seed {seed}: DP {dp.cost:.4f}  enumeration {enum.cost:.4f}  "
              f"agree={abs(dp.cost - enum.cost) <= 1e-9}")

    print("\ncapacity sweep on one 4-pair instance (optimum can only improve);")
    print("gaps use depot starts, the setting the depot-rooted optimum bounds:")
    for q in (1, 2, 3, 4):
        capped = random_instance(4, float(q), 42)
        optimum = held_karp(capped)
        nnh = nnh_from(capped, 0)
        cih = cih_from(capped, 0)
        print(f"  Q={q}: optimum {optimum.cost:.4f}   "
              f"NNH {nnh.cost:.4f} (+{(nnh.cost / optimum.cost - 1):.1%})   "
              f"CIH {cih.cost:.4f} (+{(cih.cost / optimum.cost - 1):.1%})")

    print("\nstarting elsewhere changes the load profile, so the any-start best")
    print("may even undercut the depot-rooted optimum:")
    capped = random_instance(4, 1.0, 42)
    best = nnh_best(capped)
    print(f"  Q=1: any-start NNH best {best.best_cost:.4f} from start {best.best_init} "
          f"vs depot-rooted optimum {held_karp(capped).cost:.4f}")

    print("\nan item heavier than the agent makes the whole instance infeasible:")
    flagged = random_instance(4, 0.5, 42)
    print(f"  flagged: {flagged.is_trivially_infeasible}, "
          f"exact solver returns {held_karp(flagged)}")


if __name__ == "__main__":
    main()
