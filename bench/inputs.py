"""Seeded input generator: every workload's config is a pure function of the seed.

The generator is independent of lculab, so a change to the library's own chain
families cannot change what the benchmark feeds it. `build` returns the
CLI config (a JSON-ready dict) plus the reference data the correctness checks
need.
"""

from __future__ import annotations

import numpy as np

# Full-size and smoke-size parameters per workload. BENCHMARK.json's `why`
# lines and bench/README.md describe the full sizes.
SIZES = {
    "hitting-cycle": {"full": {"n": 8, "epsilon": 0.1}, "smoke": {"n": 6, "epsilon": 0.1}},
    "gibbs-tfim": {
        "full": {"qubits": 6, "beta": 2.0, "epsilon": 0.05},
        "smoke": {"qubits": 3, "beta": 2.0, "epsilon": 0.05},
    },
    "sparse-verify": {
        "full": {"n": 80, "degree": 4, "marked": 3, "colors": 6},
        "smoke": {"n": 16, "degree": 4, "marked": 3, "colors": None},
    },
    "mc-baseline": {"full": {"n": 8, "epsilon": 2.0}, "smoke": {"n": 8, "epsilon": 2.0}},
}

_DYADIC_BITS = 10
_MAX_DRAWS = 1000


def lazy_cycle_matrix(n: int, stay: float = 0.5) -> np.ndarray:
    """Column-stochastic lazy walk on the n-cycle."""
    p = np.zeros((n, n))
    hop = (1.0 - stay) / 2
    for s in range(n):
        p[s, s] = stay
        p[(s + 1) % n, s] += hop
        p[(s - 1) % n, s] += hop
    return p


def chain_json(p: np.ndarray, marked) -> dict:
    rows, cols = np.nonzero(p)
    return {
        "n_states": int(p.shape[0]),
        "entries": [[int(r), int(c), float(p[r, c])] for r, c in zip(rows, cols)],
        "marked": sorted(int(s) for s in marked),
    }


def tfim_pauli_text(fields) -> str:
    """Open transverse-field Ising chain: -sum Z_i Z_{i+1} - sum h_i X_i."""
    n = len(fields)
    lines = []
    for i in range(n - 1):
        word = ["I"] * n
        word[i] = word[i + 1] = "Z"
        lines.append(f"-1.0 {''.join(word)}")
    for i, h in enumerate(fields):
        word = ["I"] * n
        word[i] = "X"
        lines.append(f"{-float(h)!r} {''.join(word)}")
    return "\n".join(lines) + "\n"


_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def pauli_text_matrix(text: str) -> np.ndarray:
    """Dense matrix of a 'coeff WORD' listing over I, X and Z."""
    total = None
    for line in text.splitlines():
        if not line.strip():
            continue
        coeff, word = line.split()
        mat = np.array([[1.0]])
        for c in word:
            mat = np.kron(mat, _PAULI[c])
        total = float(coeff) * mat if total is None else total + float(coeff) * mat
    return total


def sparse_dyadic_matrix(rng: np.random.Generator, n: int, degree: int) -> np.ndarray:
    """Reversible chain with dyadic probabilities k/2^10 on a bounded-degree graph.

    A random spanning tree plus up to n extra edges, every node with at most
    `degree` neighbours; symmetric integer edge weights and a self-loop that
    pads each column to 2^10 keep the chain reversible and lazy.
    """
    denom = 1 << _DYADIC_BITS
    cap = denom // (4 * degree)
    w = np.zeros((n, n), dtype=np.int64)
    count = np.zeros(n, dtype=int)
    order = rng.permutation(n)

    def link(a, b):
        weight = int(rng.integers(1, cap))
        w[a, b] += weight
        w[b, a] += weight
        count[a] += 1
        count[b] += 1

    for i in range(1, n):
        open_nodes = [order[j] for j in range(i) if count[order[j]] < degree]
        pool = open_nodes if open_nodes else [order[j] for j in range(i)]
        link(order[i], pool[rng.integers(0, len(pool))])
    for _ in range(n):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b and count[a] < degree and count[b] < degree and w[a, b] == 0:
            link(a, b)
    p = w / denom
    p[np.diag_indices(n)] = (denom - w.sum(axis=0)) / denom
    return p


def greedy_edge_colors(p: np.ndarray, marked) -> int:
    """Colours a greedy proper colouring of the sorted unmarked-block edges uses."""
    skip = set(int(s) for s in marked)
    rows, cols = np.nonzero(p)
    edges = sorted(
        {(int(min(r, c)), int(max(r, c))) for r, c in zip(rows, cols)
         if r != c and r not in skip and c not in skip}
    )
    used: dict[int, set[int]] = {}
    top = -1
    for a, b in edges:
        taken = used.setdefault(a, set()) | used.setdefault(b, set())
        color = 0
        while color in taken:
            color += 1
        used[a].add(color)
        used[b].add(color)
        top = max(top, color)
    return top + 1


def build(workload: str, seed: int, smoke: bool = False) -> tuple[dict, dict]:
    """(CLI config, reference data) for one workload and seed."""
    size = SIZES[workload]["smoke" if smoke else "full"]
    # The second entry ("lcu" in ASCII) keeps these draws apart from any other
    # stream seeded with the same number, such as the program's own.
    rng = np.random.default_rng([seed, 0x6C6375])
    if workload == "hitting-cycle":
        p = lazy_cycle_matrix(size["n"])
        config = {"command": "hitting", "chain": chain_json(p, [0]), "epsilon": size["epsilon"]}
        return config, {"matrix": p, "marked": (0,), "epsilon": size["epsilon"]}
    if workload == "mc-baseline":
        p = lazy_cycle_matrix(size["n"])
        # No CLI command runs the Monte-Carlo baseline. The chain travels in the
        # appendix-verify schema, which holds a chain and nothing else, so
        # load_config validates it like any CLI input; epsilon stays with the
        # benchmark because that schema caps it below 1.
        config = {"command": "appendix-verify", "chain": chain_json(p, [0])}
        return config, {"matrix": p, "marked": (0,), "epsilon": size["epsilon"]}
    if workload == "gibbs-tfim":
        fields = rng.uniform(0.5, 1.0, size=size["qubits"])
        text = tfim_pauli_text(fields)
        config = {
            "command": "gibbs",
            "hamiltonian": {"pauli": text},
            "beta": size["beta"],
            "epsilon": size["epsilon"],
        }
        return config, {"hamiltonian": pauli_text_matrix(text), "beta": size["beta"],
                        "epsilon": size["epsilon"]}
    if workload == "sparse-verify":
        # Redraw until the colour count matches, so every seed builds enlarged
        # operators of the same dimension and costs the same.
        for _ in range(_MAX_DRAWS):
            p = sparse_dyadic_matrix(rng, size["n"], size["degree"])
            marked = sorted(int(s) for s in rng.choice(size["n"], size["marked"], replace=False))
            if size["colors"] is None or greedy_edge_colors(p, marked) == size["colors"]:
                break
        else:
            raise RuntimeError(f"no draw with {size['colors']} colours in {_MAX_DRAWS} tries")
        config = {"command": "appendix-verify", "chain": chain_json(p, marked)}
        return config, {"matrix": p, "marked": tuple(marked)}
    raise KeyError(workload)
