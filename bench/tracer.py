"""Traced `pmcong` run: wraps the package's public functions from outside.

Run as a child process in place of ``python -m pmcong.cli``::

    python3 bench/tracer.py SPANS_OUT RUN_ID run --config scenario.ini ...

Every wrapper is installed in each ``pmcong`` module namespace that bound
the function (``from .x import y`` copies the binding), and methods are
wrapped on their class.  A *span* wrapper records (name, start, end, parent)
for each call; a direct recursive call of the same span name is folded into
the open span.  A *counter* wrapper only counts calls, for functions hot
enough that a span per call would swamp the run.  Spans stay in memory and
are written to SPANS_OUT as JSON when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# Span name -> the callables it covers, as "module:qualname".
SPANS = {
    "harness.config": ["pmcong.harness:ScenarioConfig.from_ini"],
    "harness.report": ["pmcong.harness:jsonable", "pmcong.cli:_emit"],
    "levels.setup": ["pmcong.levels:scenario_level"],
    "numberfield.field_setup": ["pmcong.numberfield:field_spec"],
    "numberfield.totpos": ["pmcong.numberfield:tot_pos_up_to"],
    "numberfield.ideals": ["pmcong.numberfield:enumerate_ideals"],
    "numberfield.factor": ["pmcong.numberfield:factor_principal"],
    "numberfield.split_type": ["pmcong.numberfield:split_type"],
    "numberfield.char_poly": ["pmcong.numberfield:AlgebraicInt.char_poly"],
    "cache.load": ["pmcong.cache:load_records"],
    "cache.store": ["pmcong.cache:store_records"],
    "dirichlet.l_value": ["pmcong.dirichlet:l_value_neg"],
    "dirichlet.bernoulli": ["pmcong.dirichlet:generalized_bernoulli"],
    "dirichlet.series": ["pmcong.dirichlet:series_coefficients"],
    "zeta.hurwitz": ["pmcong.zeta:partial_zeta"],
    "zeta.characters": ["pmcong.zeta:partial_zeta_q_characters"],
    "zeta.delta": ["pmcong.zeta:delta_table", "pmcong.zeta:delta_sum_integrality"],
    "pseudomeasure.lambda": ["pmcong.pseudomeasure:lambda_approx"],
    "pseudomeasure.transfer": ["pmcong.pseudomeasure:verify_transfer_congruence"],
    "pseudomeasure.delta": ["pmcong.pseudomeasure:verify_delta_congruence"],
    "qexpansion.verify": ["pmcong.qexpansion:verify_qexp_congruence"],
    "qexpansion.eisenstein_l": ["pmcong.qexpansion:eisenstein_l"],
    "qexpansion.eisenstein_q": ["pmcong.qexpansion:eisenstein_q"],
    "sigma.suite": ["pmcong.sigma:run_sigma_suite"],
    "sigma.galois_setup": ["pmcong.sigma:GaloisSetup.__init__"],
}

COUNTERS = {
    "cyclotomic.add": ["pmcong.cyclotomic:CyclotomicNumber.__add__"],
    "cyclotomic.mul_root": ["pmcong.cyclotomic:CyclotomicNumber.mul_root"],
    "groupring.same_ring": ["pmcong.groupring:GroupRing.same_ring"],
    "sigma.coset_transfer": ["pmcong.sigma:coset_transfer"],
    "sigma.smith": ["pmcong.sigma:smith_normal_form"],
}


# Spans whose calls also feed counters (see Tracer._observe).
_OBSERVED = {
    "numberfield.totpos",
    "numberfield.ideals",
    "numberfield.factor",
    "numberfield.split_type",
    "cache.load",
}


def _field_key(spec) -> tuple:
    return (spec.p, spec.conductor)


class Tracer:
    """Span and counter recorder for one traced run (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = list(SPANS)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._open_names: list[int] = []
        self.counts = {name: 0 for name in COUNTERS}
        self.counts.update(nu_count=0, ideals_count=0, cache_misses=0)
        self._distinct = {"numberfield.factor": set(), "numberfield.split_type": set()}

    # -- observers: per-call data that spans alone do not carry ---------------

    def _observe(self, name: str, args, result) -> None:
        if name == "numberfield.totpos":
            self.counts["nu_count"] += sum(len(nus) for nus in result.values())
        elif name == "numberfield.ideals":
            self.counts["ideals_count"] += len(result)
        elif name == "numberfield.factor":
            spec, nu = args[0], args[1]
            self._distinct[name].add(_field_key(spec) + nu.coords)
        elif name == "numberfield.split_type":
            spec, q = args[0], args[1]
            self._distinct[name].add(_field_key(spec) + (q,))
        elif name == "cache.load" and result is None:
            self.counts["cache_misses"] += 1

    # -- wrappers -----------------------------------------------------------------

    def span_wrapper(self, name: str, fn):
        idx = self.names.index(name)
        observed = name in _OBSERVED
        open_spans, open_names = self._open, self._open_names
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if open_names and open_names[-1] == idx:
                return fn(*args, **kwargs)
            i = len(span_name)
            span_name.append(idx)
            span_parent.append(open_spans[-1] if open_spans else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            open_spans.append(i)
            open_names.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                open_names.pop()
                span_start[i] = start
                span_end[i] = end
            if observed:
                self._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every namespace that bound it."""
        for table, make in ((SPANS, self.span_wrapper), (COUNTERS, self.counter_wrapper)):
            for name, targets in table.items():
                for target in targets:
                    if not _install(target, lambda fn, n=name: make(n, fn)):
                        raise RuntimeError(f"no binding found for {target}")

    # -- output -------------------------------------------------------------------

    def dump(self, path: str) -> None:
        if self._open:
            raise RuntimeError("dump with spans still open")
        counts = dict(self.counts)
        for name, keys in self._distinct.items():
            counts[f"{name}.distinct"] = len(keys)
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "span_parent": self.span_parent.tolist(),
            "span_start": self.span_start.tolist(),
            "span_end": self.span_end.tolist(),
            "counts": counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _install(target: str, make_wrapper) -> int:
    """Replace `target` by its wrapper everywhere it is bound; returns the count."""
    module_name, _, qualname = target.partition(":")
    module = sys.modules[module_name]
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        # a method or classmethod: wrap the function stored on the class
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(owner, attr, make_wrapper(raw))
        return 1
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    replaced = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "pmcong" and not mod_name.startswith("pmcong."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                replaced += 1
    return replaced


def main(argv: list[str]) -> int:
    spans_out, run_id, cli_args = argv[0], argv[1], argv[2:]
    import pmcong.cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return pmcong.cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
