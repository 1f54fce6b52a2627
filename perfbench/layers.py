"""The traced layers: public functions of each k3glue module, and the
per-layer metrics derived from their spans.

A span is (function index, parent span index or -1, start ns, end ns,
size). `size` is the larger dimension of the first matrix argument for
the `matrices` kernels (bucketed at rank 22, the paper's lattice) and
the `order` argument of `gluing.anti_isometry_scalars`.
"""

LAYERS = {
    "cli": ("main",),
    "certify": ("certify", "assemble_k3"),
    "salem": ("cross_validate", "admissible_values", "square_condition_filter", "theorem_b_set"),
    "gluing": ("find_glue_map", "glue", "extend_isometry", "verify_glue_map", "anti_isometry_scalars"),
    "lattices": ("glue_group", "induced_glue_action", "check_isometry", "sylow_decomposition"),
    "matrices": (
        "det", "charpoly", "smith_normal_form", "hermite_normal_form",
        "rational_inverse", "solve_rational", "signature_symmetric", "kernel_basis",
    ),
    "polynomials": (
        "real_root_isolation", "refine_root", "resultant",
        "squarefree_decomposition", "sturm_sequence", "count_real_roots",
    ),
    "cyclotomic": (
        "build_trace_form_lattice", "twist_element_parts", "real_subfield",
        "real_embedding_signs", "real_embedding_values", "norm_real_subfield",
    ),
    "arith": ("factorize",),
    "latticeio": ("read_lattice_file", "format_lattice"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
RANK_SPLIT = 22
SCAN = "gluing.anti_isometry_scalars"
WITH_TOTAL = ("certify.certify", "certify.assemble_k3")


def _keys(name):
    if name.startswith("matrices."):
        return [f"{name}.r_le22", f"{name}.r_gt22"]
    return [name]


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for name in FUNCTIONS:
        for key in _keys(name):
            out += [(f"{key}.calls", "count"), (f"{key}.self_s", "s")]
        if name in WITH_TOTAL:
            out.append((f"{name}.total_s", "s"))
        if name == SCAN:
            out += [(f"{name}.residues_scanned", "count"), (f"{name}.useful_ratio", "ratio")]
    return out + [("trace_overhead_ratio", "ratio")]


def job_totals(spans):
    """Per-metric sums over one traced job's spans (no ratios)."""
    child_ns = [0] * len(spans)
    for fid, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for (fid, _, start, end, size), child in zip(spans, child_ns):
        name = FUNCTIONS[fid]
        key = name
        if name.startswith("matrices."):
            key += ".r_le22" if size <= RANK_SPLIT else ".r_gt22"
        totals[f"{key}.calls"] = totals.get(f"{key}.calls", 0) + 1
        totals[f"{key}.self_s"] = totals.get(f"{key}.self_s", 0) + (end - start - child) / 1e9
        if name in WITH_TOTAL:
            totals[f"{name}.total_s"] = totals.get(f"{name}.total_s", 0) + (end - start) / 1e9
        if name == SCAN:
            key = f"{name}.residues_scanned"
            totals[key] = totals.get(key, 0) + size
    return totals


def per_job_metrics(jobs, overhead_ratio):
    """Mean per traced job of every per-layer metric; 0 where a function
    was never called. useful_ratio is calls over residues scanned."""
    means = {}
    for name, _ in metric_names():
        means[name] = sum(job.get(name, 0) for job in jobs) / len(jobs)
    scanned = means[f"{SCAN}.residues_scanned"]
    means[f"{SCAN}.useful_ratio"] = means[f"{SCAN}.calls"] / scanned if scanned else 0.0
    means["trace_overhead_ratio"] = overhead_ratio
    return means
