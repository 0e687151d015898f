"""Per-layer tracing installed from outside lcrit.

Wrappers replace public functions on the module or class attribute that
lcrit's own callers look up at call time, so `lcrit.kernels.dirichlet_sum`
catches the calls made from `primesums` and `auxseries`, and a method wrapped
on its class catches every instance.  Names a caller bound with
`from module import name` are not caught this way; none of the hooks below
rely on such a name.

Spans are kept in memory as [name, start, end, parent, pre, post, error]
and written out once the measured pass has ended.  Each operation of a
workload opens a root span, so the spans of one operation share its root.

Which end-to-end metric each layer should move, and on which workload:

- characters.*: setup_s and lscan op_p50_ms.
- kernels.*: lscan op_tail_ms and aux_roots wall_s; no change on tau_chain.
- lfengine.*: zeros wall_s and lscan op_p50_ms.
- primesums.*: lscan op_p50_ms and aux_roots wall_s.
- auxseries.*: aux_roots wall_s; no change on zeros.
- diophantine.*: tau_chain wall_s and ok_frac.
- critzeros.*: zeros wall_s.
- scanner.*: lscan op_p50_ms.
- setup.*: setup_s.  process.cpu_s is diagnostic only.
"""

from __future__ import annotations

import functools
import json
import time

NAME, START, END, PARENT, PRE, POST, ERROR = range(7)


class Tracer:
    """Records nested spans while `active` is set; a no-op otherwise."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        """Replace owner.attr by a traced wrapper.

        `pre(args, kwargs)` runs before the call and `post(result)` after it;
        their values are kept on the span.  A hook whose target does not exist
        is listed in `missing` and its metrics read 0.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   pre(args, kwargs) if pre else None, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if post is not None:
                rec[POST] = post(out)
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def root(self, name: str):
        """Open a root span for one operation; returns a closer."""
        rec = [name, time.perf_counter(), 0.0, -1, None, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)

        def close(error: str | None = None):
            rec[END] = time.perf_counter()
            rec[ERROR] = error
            self._stack.pop()

        return close

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "error": s[ERROR]}) + "\n")


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _residues(args, kwargs) -> int:
    chr = _arg(args, kwargs, 1, "chr")
    return sum(a is not None for a in chr.angles)


def install(tr: Tracer) -> None:
    """Wrap the public entry points of every lcrit layer."""
    import mpmath
    from sympy.polys.matrices import DomainMatrix

    from lcrit import auxseries, critzeros, diophantine, kernels, lfengine
    from lcrit import primesums, scanner
    from lcrit.characters import Character

    tr.wrap(Character, "coeff_array", "characters.coeff_array")
    tr.wrap(Character, "conjugate", "characters.conjugate")
    tr.wrap(kernels, "dirichlet_sum", "kernels.dirichlet_sum",
            pre=lambda a, k: len(_arg(a, k, 0, "logn")))
    tr.wrap(kernels, "hurwitz_main_sum", "kernels.hurwitz_main_sum",
            pre=lambda a, k: max(int(_arg(a, k, 1, "n_terms")), 0))
    tr.wrap(lfengine, "dirichlet_l", "lfengine.dirichlet_l", pre=_residues)
    for fname in ("zeta_prime", "zeta_second"):
        tr.wrap(lfengine, fname, f"lfengine.{fname}", pre=lambda a, k: 1)
    tr.wrap(primesums, "lambda_weighted_sum", "primesums.lambda_weighted_sum",
            pre=lambda a, k: len(_arg(a, k, 2, "prime_weights")))
    tr.wrap(primesums.PrimeTable, "prime_powers", "primesums.prime_powers",
            pre=lambda a, k: float(_arg(a, k, 1, "x"))
            in getattr(a[0], "_pp_cache", {}))
    tr.wrap(auxseries.WeightScheme, "prime_weights", "auxseries.prime_weights",
            pre=lambda a, k: len(_arg(a, k, 1, "primes")))
    tr.wrap(auxseries, "aux_series", "auxseries.aux_series")
    tr.wrap(auxseries, "aux_series_derivative", "auxseries.aux_series_derivative")
    tr.wrap(auxseries, "newton_root", "auxseries.newton_root")
    tr.wrap(auxseries, "v_series_shifted", "auxseries.v_series_shifted")
    tr.wrap(diophantine, "find_tau", "diophantine.find_tau",
            post=lambda cert: bool(cert.success))
    tr.wrap(DomainMatrix, "lll", "diophantine.lll",
            pre=lambda a, k: a[0].shape[0])
    tr.wrap(diophantine, "kronecker_defect_str", "diophantine.verify")
    tr.wrap(critzeros, "count_zeros", "critzeros.count_zeros")
    tr.wrap(critzeros, "find_critical_points", "critzeros.find_critical_points",
            post=len)
    tr.wrap(mpmath, "zeta", "critzeros.residual_mp")
    for fname in ("check_thm1_inequality", "check_thm3_inequality",
                  "check_thm2_chain", "check_thm4_chain"):
        tr.wrap(scanner, fname, f"scanner.{fname}")


def _under(spans, i: int, prefix: str) -> bool:
    """True when some ancestor of span i has a name starting with prefix."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME].startswith(prefix):
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans: list) -> dict:
    """Per-layer counts, busy times and ratios from one traced pass."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    kids: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
            kids[s[PARENT]].append(i)
    own = [dur[i] - child[i] for i in range(n)]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name))

    def total(name, values):
        return float(sum(values[i] for i in idx(name)))

    def pre_sum(name):
        return float(sum(spans[i][PRE] for i in idx(name)))

    def layer_self(prefix):
        return float(sum(own[i] for i in range(n) if spans[i][NAME].startswith(prefix)))

    def ratio(a, b):
        return a / b if b else 0.0

    ds, hz = "kernels.dirichlet_sum", "kernels.hurwitz_main_sum"
    kernel_s = total(ds, own) + total(hz, own)
    evals = sum(pre_sum(f"lfengine.{f}")
                for f in ("dirichlet_l", "zeta_prime", "zeta_second"))
    lws = "primesums.lambda_weighted_sum"
    lws_terms = sum(spans[c][PRE] for i in idx(lws) for c in kids[i]
                    if spans[c][NAME] == ds)
    pp = idx("primesums.prime_powers")
    tau = idx("diophantine.find_tau")
    certs = [spans[i][POST] for i in tau if spans[i][ERROR] is None]
    lll = idx("diophantine.lll")
    cz_evals = [i for f in ("zeta_prime", "zeta_second")
                for i in idx(f"lfengine.{f}") if _under(spans, i, "critzeros.")]
    cz_second = [i for i in idx("lfengine.zeta_second")
                 if _under(spans, i, "critzeros.")]
    zeros = sum(spans[i][POST] or 0 for i in idx("critzeros.find_critical_points"))
    resid = [i for i in idx("critzeros.residual_mp") if _under(spans, i, "critzeros.")]
    return {
        "characters.coeff_array.calls": calls("characters.coeff_array"),
        "characters.conjugate.calls": calls("characters.conjugate"),
        "kernels.dirichlet_sum.calls": calls(ds),
        "kernels.dirichlet_sum.terms": pre_sum(ds),
        "kernels.dirichlet_sum.self_s": total(ds, own),
        "kernels.hurwitz_main_sum.calls": calls(hz),
        "kernels.hurwitz_main_sum.terms": pre_sum(hz),
        "kernels.hurwitz_main_sum.self_s": total(hz, own),
        "kernels.terms_per_s": ratio(pre_sum(ds) + pre_sum(hz), kernel_s),
        "kernels.bytes_computed": 24.0 * pre_sum(ds),
        "lfengine.dirichlet_l.calls": calls("lfengine.dirichlet_l"),
        "lfengine.zeta_prime.calls": calls("lfengine.zeta_prime"),
        "lfengine.zeta_second.calls": calls("lfengine.zeta_second"),
        "lfengine.self_s": layer_self("lfengine."),
        "lfengine.hurwitz_passes_per_eval": ratio(calls(hz), evals),
        "primesums.lambda_weighted_sum.calls": calls(lws),
        "primesums.lambda_weighted_sum.self_s": total(lws, own),
        "primesums.prime_powers.hit_ratio": ratio(sum(bool(spans[i][PRE]) for i in pp), len(pp)),
        "primesums.weight_use_ratio": ratio(lws_terms, pre_sum(lws)),
        "auxseries.prime_weights.calls": calls("auxseries.prime_weights"),
        "auxseries.prime_weights.primes": pre_sum("auxseries.prime_weights"),
        "auxseries.prime_weights.self_s": total("auxseries.prime_weights", own),
        "auxseries.aux_series.calls": calls("auxseries.aux_series"),
        "auxseries.aux_series.self_s": total("auxseries.aux_series", own),
        "auxseries.newton_root.iterations": sum(
            1 for i in idx("auxseries.aux_series_derivative")
            if _under(spans, i, "auxseries.newton_root")),
        "diophantine.find_tau.calls": len(tau),
        "diophantine.find_tau.self_s": total("diophantine.find_tau", own),
        "diophantine.lll.calls": len(lll),
        "diophantine.lll.s": total("diophantine.lll", dur),
        "diophantine.lll.dim": ratio(pre_sum("diophantine.lll"), len(lll)),
        "diophantine.lll.errors": sum(spans[i][ERROR] is not None for i in lll),
        "diophantine.lll.per_cert": ratio(len(lll), len(certs)),
        "diophantine.verify.defects": calls("diophantine.verify"),
        "diophantine.verify.s": total("diophantine.verify", dur),
        "diophantine.success_ratio": ratio(sum(bool(c) for c in certs), len(tau)),
        "critzeros.count_zeros.s": total("critzeros.count_zeros", dur),
        "critzeros.find_critical_points.s": total("critzeros.find_critical_points", dur),
        "critzeros.newton_steps": len(cz_second),
        "critzeros.evals_per_zero": ratio(len(cz_evals), zeros),
        "critzeros.residual_mp.calls": len(resid),
        "critzeros.residual_mp.s": float(sum(dur[i] for i in resid)),
        "scanner.check_thm1.calls": calls("scanner.check_thm1_inequality"),
        "scanner.check_thm3.calls": calls("scanner.check_thm3_inequality"),
        "scanner.self_s": layer_self("scanner."),
    }
