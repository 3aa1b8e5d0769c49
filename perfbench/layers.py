"""Which library entry points are traced, and the per-layer metrics.

A layer's `self_s` is the summed self time of its traced entry points
below; nested traced calls (into the same or another layer) are
subtracted, so the layer totals do not double count.
"""

import inspect

from refs import LAW_NAMES


def _key(args):
    return args[0]


def _boundary_counts(tracer):
    def before(args):
        c = args[0]
        cells = nnz = 0
        for k in range(1, c.top + 1):
            cells += c.rank(k - 1) * c.rank(k)
            nnz += sum(len(col) for col in c.sparse_boundary(k))
        tracer.count("chains.int.matrix_cells", cells)
        tracer.count("chains.int.boundary_nnz", nnz)
        return {"matrix_cells": cells, "boundary_nnz": nnz,
                "ranks": [c.rank(k) for k in range(c.top + 1)]}
    return before


def _count_simplices(tracer, init):
    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.count("simplicial.simplices", sum(self.f_vector()))
    return counted


def install(tracer):
    """Wrap every traced entry point; tracer.restore() undoes it."""
    from bockstein import cdtype, chains, cli, dimension, groups, oracle
    from bockstein import primes, simplicial

    hook = tracer.hook
    method = tracer.patch_method

    hook(primes, "check_prime", "primes.check_prime", key=_key)
    method(primes.PrimeFn, "__init__", "primes.PrimeFn")
    for attr in ("combine", "map", "sup", "inf"):
        method(primes.PrimeFn, attr, f"primes.PrimeFn.{attr}")
    method(primes.PrimeSet, "__init__", "primes.PrimeSet")
    for attr in ("__or__", "__and__", "__sub__", "__invert__"):
        method(primes.PrimeSet, attr, f"primes.PrimeSet.{attr.strip('_')}")

    method(cdtype.CdType, "to_phi", "cdtype.to_phi", key=_key)
    for attr in ("from_phi", "triple", "sum", "times", "wedge", "scale",
                 "conjugate", "norm", "inferior_norm", "leq"):
        method(cdtype.CdType, attr, f"cdtype.{attr}")
    for fn in ("validate", "decompose", "phi_basis", "wedge_family"):
        hook(cdtype, fn, f"cdtype.{fn}")

    hook(groups, "sigma", "groups.sigma", key=_key)
    hook(groups, "normalize", "groups.normalize")

    for fn in dimension.__all__:
        if inspect.isfunction(getattr(dimension, fn)):
            hook(dimension, fn, f"dimension.{fn}")

    hook(oracle, "enumerate_types", "oracle.enumerate_types")

    hook(chains, "integral_homology", "chains.integral_homology",
         span=True, before=_boundary_counts(tracer))
    hook(chains, "field_betti", "chains.field.field_betti")
    for fn in ("homology", "cohomology", "induced_map", "join_homology",
               "quotient_complex", "moore_space"):
        hook(chains, fn, f"chains.{fn}")
    method(chains.ChainComplex, "from_columns", "chains.from_columns")

    for fn in ("pontryagin_stage", "mapping_cylinder", "ew_skeleton",
               "degree_map_circle", "full_simplex", "boundary_simplex",
               "circle"):
        hook(simplicial, fn, f"simplicial.build.{fn}")
    method(simplicial.SimplicialComplex, "__init__", "simplicial.complex")
    timed_init = simplicial.SimplicialComplex.__dict__["__init__"]
    simplicial.SimplicialComplex.__init__ = _count_simplices(tracer,
                                                             timed_init)
    tracer._undo.append((simplicial.SimplicialComplex, "__init__",
                         timed_init))
    method(simplicial.SimplicialComplex, "chain_complex",
           "simplicial.chain_complex")
    method(simplicial.SimplicialMap, "__init__", "simplicial.map")
    method(simplicial.SimplicialMap, "chain_map", "simplicial.chain_map")
    for fn in ("homology_of", "cohomology_of", "induced"):
        hook(simplicial, fn, f"simplicial.{fn}")

    for fn in ("parse", "parse_cdexpr", "parse_group"):
        hook(cli, fn, f"cli.parse.{fn}")
    for fn in ("evaluate", "emit_table", "verify"):
        hook(cli, fn, f"cli.{fn}")
    hook(cli, "main", "cli.main")


def metrics(tracer):
    """The per-layer metrics of BENCHMARK.json, except the cli cold-start
    figures and bench.tracing_overhead_s, which run.py measures."""
    calls, self_of = tracer.calls, tracer.self_of
    share = tracer.repeat_share
    out = {
        "primes.check_prime.calls": calls("primes.check_prime"),
        "primes.check_prime.self_s": self_of("primes.check_prime"),
        "primes.check_prime.repeat_share": share("primes.check_prime"),
        "primes.PrimeFn.calls": calls("primes.PrimeFn"),
        "primes.PrimeFn.self_s": self_of("primes.PrimeFn"),
        "primes.PrimeSet.calls": calls("primes.PrimeSet"),
        "primes.self_s": tracer.self_sum("primes."),
        "cdtype.to_phi.calls": calls("cdtype.to_phi"),
        "cdtype.to_phi.self_s": self_of("cdtype.to_phi"),
        "cdtype.to_phi.repeat_share": share("cdtype.to_phi"),
        "cdtype.from_phi.calls": calls("cdtype.from_phi"),
        "cdtype.from_phi.self_s": self_of("cdtype.from_phi"),
        "cdtype.sum.calls": calls("cdtype.sum"),
        "cdtype.times.calls": calls("cdtype.times"),
        "cdtype.wedge.calls": calls("cdtype.wedge"),
        "cdtype.validate.calls": calls("cdtype.validate"),
        "cdtype.self_s": tracer.self_sum("cdtype."),
        "groups.sigma.calls": calls("groups.sigma"),
        "groups.sigma.self_s": self_of("groups.sigma"),
        "groups.sigma.repeat_share": share("groups.sigma"),
        "groups.normalize.calls": calls("groups.normalize"),
        "groups.self_s": tracer.self_sum("groups."),
        "dimension.dim.calls": calls("dimension.dim"),
        "dimension.dim.self_s": self_of("dimension.dim"),
        "dimension.self_s": tracer.self_sum("dimension."),
        "oracle.enumerate_types.s":
            tracer.stats["oracle.enumerate_types"].total
            if "oracle.enumerate_types" in tracer.stats else 0.0,
        "chains.integral_homology.calls": calls("chains.integral_homology"),
        "chains.integral_homology.self_s":
            self_of("chains.integral_homology"),
        "chains.int.matrix_cells":
            tracer.counters.get("chains.int.matrix_cells", 0),
        "chains.int.boundary_nnz":
            tracer.counters.get("chains.int.boundary_nnz", 0),
        "chains.field.self_s": tracer.self_sum("chains.field."),
        "chains.induced_map.calls": calls("chains.induced_map"),
        "chains.induced_map.self_s": self_of("chains.induced_map"),
        "chains.self_s": tracer.self_sum("chains."),
        "simplicial.build.self_s": tracer.self_sum("simplicial.build."),
        "simplicial.chain_complex.self_s":
            self_of("simplicial.chain_complex"),
        "simplicial.simplices":
            tracer.counters.get("simplicial.simplices", 0),
        "simplicial.self_s": tracer.self_sum("simplicial."),
        "cli.parse.self_s": tracer.self_sum("cli.parse."),
        "cli.evaluate.self_s": self_of("cli.evaluate"),
        "cli.main.self_s": self_of("cli.main"),
    }
    for law in LAW_NAMES:
        st = tracer.stats.get(f"oracle.law.{law}")
        seconds = st.total if st else 0.0
        out[f"oracle.law.{law}.s"] = seconds
        out[f"oracle.law.{law}.tuples_per_s"] = (
            st.calls / seconds if st and seconds > 0 else 0.0)
    return out
