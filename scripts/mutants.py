#!/usr/bin/env python3
"""Run the committed mutant table: each row breaks one line of an oracle
pair, and the tests it names must then fail.

hetmod's claims are decided by pairs of independent routes (the table
route of Dbar and its form route, the Gram adjoint and the index-formula
adjoint, the invariant and the chart operator, the exact and the mod-p
rank, ...).  A row of ``MUTANTS`` is a change to one side of a pair: a
name, a file, an exact source text that occurs once in that file, its
replacement, and the tests that must fail under it (DeMillo, Lipton &
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978).  A
row whose mutant changes no result says why in ``equivalent``.

Usage (standard library only; pytest must be importable by the Python
that runs this script):

    python3 scripts/mutants.py                 # every row, its named tests
    python3 scripts/mutants.py --all           # every row, all of tier-1
    python3 scripts/mutants.py --root DIR      # another git checkout

The files of the checkout that git tracks or would track (``git
ls-files --cached --others --exclude-standard``), as they are in the
working tree, are copied once into a temporary directory; each row is
applied there, its tests run with ``PYTHONPATH=src`` and no bytecode
written, and the file is restored.  A test that runs over ``TEST_SECONDS``
under a mutant fails (a mutant can make an elimination's numbers grow
without bound).  A row prints ``killed`` with the
failing test ids, or ``survived`` with the named tests that passed.  The
exit status is 0 when every row is killed by all its named tests, or is
equivalent and survives; 2 when a row's text does not occur exactly once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str
    tests: tuple[str, ...]
    equivalent: str = ""


Q = "tests/test_qcomplex.py::"
A = "tests/test_acceptance.py::"
C = "tests/test_cohomology.py::"
L = "tests/test_linalg.py::"
CH = "tests/test_chartlocal.py::"

MUTANTS = (
    # Dbar: the form route (oracle) against the table route (commands)
    Mutant("form-route-torsion-sign", "tests/oracles.py",
           "+ op_script_T(s.w, m) +", "- op_script_T(s.w, m) +",
           (Q + "test_matrix_matches_direct_application",)),
    Mutant("table-route-torsion-sign", "src/hetmod/qcomplex.py",
           "parts += [(w + i, j, k, None, 0, c)",
           "parts += [(w + i, j, k, None, 0, -c)",
           (Q + "test_matrix_matches_direct_application",)),
    # the adjoint: index formulas (oracle) against the Gram route
    Mutant("formula-adjoint-torsion-conjugate", "tests/oracles.py",
           "((l, k, jp), (A[jp][j] * T[k][l][j]).conjugate())",
           "((l, k, jp), A[jp][j] * T[k][l][j])",
           (Q + "test_adjoint_formula_matches_gram_route",)),
    Mutant("gram-adjoint-source-gram", "src/hetmod/qcomplex.py",
           "_gram_rows(m, op.source_p, inverse=True)",
           "_gram_rows(m, op.source_p, inverse=False)",
           (Q + "test_adjoint_formula_matches_gram_route",
            Q + "test_adjoint_identity_symbolic",
            A + "test_07_adjoint_identity_all_models")),
    Mutant("lowered-adjoint-forgets-scale", "src/hetmod/qcomplex.py",
           "return s * e, [linalg.int_row_sum(terms) if terms else {}",
           "return s, [linalg.int_row_sum(terms) if terms else {}",
           (Q + "test_adjoint_formula_matches_gram_route",)),
    # the blocks of Dbar by leg range: leg_block (oracle) and decoupled
    Mutant("leg-block-bounds", "tests/oracles.py",
           "if lo <= c < hi} for row in mk[tlo:thi])",
           "if lo < c < hi} for row in mk[tlo:thi])",
           (Q + "test_block_reassembly",)),
    Mutant("decoupled-bounds", "src/hetmod/qcomplex.py",
           "if src[t] <= c < src[t + 1]}",
           "if src[t] <= c <= src[t + 1]}",
           (Q + "test_matrix_matches_direct_application",
            Q + "test_block_reassembly")),
    # the square of Dbar against the anomaly contraction
    Mutant("anomaly-contraction-half", "tests/oracles.py",
           'c * Scalar.of("1/2"))', "c)",
           (Q + "test_square_matches_anomaly_contraction",)),
    # the commutation identity and the curvature it reads
    Mutant("commutation-curvature-sign", "tests/oracles.py",
           "return lhs - rterm - rhs", "return lhs + rterm - rhs",
           (Q + "test_commutation_identity_on_vector_fields",)),
    Mutant("curvature-array-sign", "src/hetmod/geometry.py",
           'arr[k][j][l][mm] = -_as_gauss(c, "curvature")',
           'arr[k][j][l][mm] = _as_gauss(c, "curvature")',
           (Q + "test_commutation_identity_on_vector_fields",)),
    # the symmetry of the Chern curvature against the torsion
    Mutant("chern-symmetry-torsion-sign", "tests/oracles.py",
           "res = R[k][q][mm][l] - R[k][l][mm][q] - dT",
           "res = R[k][q][mm][l] - R[k][l][mm][q] + dT",
           ("tests/test_geometry.py::test_chern_symmetry_residual_zero",)),
    # the duality of H and H*: the two volume-form pairings
    Mutant("duality-pairing-trace-sign", "tests/oracles.py",
           "- end_pair_trace(beta, gamma).scale(alpha)",
           "+ end_pair_trace(beta, gamma).scale(alpha)",
           (A + "test_08_duality_pairing_random_closed_pairs",)),
    # the chart operator against the chart-form reference
    Mutant("chart-couple-leg-sign", "src/hetmod/chartlocal.py",
           "f.scale(fc if sign == 1 else -fc))", "f.scale(fc))",
           (CH + "test_residual_tables_of_every_leg_set",
            CH + "test_flat_operators_match_the_chart_form_reference",
            CH + "test_curvature_coupling_R_nabla_plus")),
    # exact rank over Z[i] against the rank mod p
    Mutant("content-division-real-parts", "src/hetmod/linalg.py",
           "g = gcd(*chain.from_iterable(out.values()))",
           "g = gcd(*(x for x, _ in out.values()))",
           (L + "test_rank_kernel_and_inverse_with_big_denominators",)),
    Mutant("rank-mod-p-elimination-sign", "src/hetmod/linalg.py",
           "rows[i] = [(a * x - f * y) % p",
           "rows[i] = [(a * x + f * y) % p",
           (L + "test_rank_mod_p_against_the_exact_rank",)),
    # the symbol scan: a block decided mod p, or sample by sample exactly
    Mutant("rank-drops-mod-p-skips-fallback", "src/hetmod/linalg.py",
           "stuck.update(i for i, x in enumerate(a) if not x)",
           "stuck.update(i for i, x in enumerate(a) if not x and False)",
           (C + "test_block_decider_falls_back_where_a_diagonal_pivot"
            "_vanishes",)),
)


def anchor_faults(root: str = ROOT) -> list[str]:
    """The rows whose text does not occur exactly once in their file."""
    out = []
    for row in MUTANTS:
        path = os.path.join(root, row.file)
        if not os.path.exists(path):
            out.append(f"{row.name}: no file {row.file}")
            continue
        with open(path, encoding="utf-8") as fh:
            count = fh.read().count(row.text)
        if count != 1:
            out.append(f"{row.name}: text occurs {count} times in {row.file}")
    return out


TEST_SECONDS = 60   # a test that a mutant keeps running longer fails

# loaded into the pytest run: it notes each failing id, and fails a test
# that runs over its time (a BaseException, so that hypothesis does not
# catch it and shrink)
_PLUGIN = '''
import os
import signal


class MutantTimeout(BaseException):
    pass


def _alarm(signum, frame):
    raise MutantTimeout("over %s s" % os.environ["MUTANT_TEST_SECONDS"])


def pytest_runtest_logstart(nodeid, location):
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(int(os.environ["MUTANT_TEST_SECONDS"]))


def pytest_runtest_logfinish(nodeid, location):
    signal.alarm(0)


def _note(report):
    if report.failed:
        with open(os.environ["MUTANT_FAILURES"], "a", encoding="utf-8") as fh:
            fh.write(report.nodeid + "\\n")


pytest_runtest_logreport = _note
pytest_collectreport = _note
'''


def _copy_tree(root: str, dest: str) -> None:
    files = subprocess.run(["git", "-C", root, "ls-files", "-z", "--cached",
                            "--others", "--exclude-standard"],
                           capture_output=True, check=True).stdout
    for rel in filter(None, files.decode().split("\0")):
        src = os.path.join(root, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def _failures(tree: str, plugin_dir: str, tests) -> list[str]:
    """The ids of the tests (and collections) that fail in ``tree``."""
    report = os.path.join(plugin_dir, "failures.txt")
    if os.path.exists(report):
        os.remove(report)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               MUTANT_FAILURES=report, MUTANT_TEST_SECONDS=str(TEST_SECONDS),
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(tree, "src"), plugin_dir]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # the table's own anchor test fails under every row by construction
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                    "mutant_report", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors",
                    "--ignore=tests/test_mutants.py", *tests],
                   cwd=tree, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=1800)
    if not os.path.exists(report):
        return []
    with open(report, encoding="utf-8") as fh:
        return sorted(set(fh.read().split("\n")) - {""})


def _covers(named: str, failed: list[str]) -> bool:
    return any(f == named or f.startswith(named + "[") for f in failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--all", action="store_true",
                    help="run all of tier-1 for each row")
    ap.add_argument("--root", default=ROOT,
                    help="the git checkout to copy (default: this one)")
    args = ap.parse_args(argv)
    faults = anchor_faults(args.root)
    if faults:
        print("\n".join(faults))
        return 2
    ok = True
    with tempfile.TemporaryDirectory(prefix="hetmod-mutants-") as tmp:
        tree, plugin_dir = os.path.join(tmp, "tree"), os.path.join(tmp, "p")
        os.makedirs(plugin_dir)
        with open(os.path.join(plugin_dir, "mutant_report.py"), "w",
                  encoding="utf-8") as fh:
            fh.write(_PLUGIN)
        _copy_tree(args.root, tree)
        for row in MUTANTS:
            path = os.path.join(tree, row.file)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source.replace(row.text, row.replacement))
            try:
                failed = _failures(tree, plugin_dir,
                                   () if args.all else row.tests)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(source)
            missed = [t for t in row.tests if not _covers(t, failed)]
            if failed and not missed:
                print(f"{row.name}: killed ({len(failed)}): "
                      + ", ".join(failed), flush=True)
                ok = ok and not row.equivalent
                continue
            print(f"{row.name}: survived; passed: " + ", ".join(missed)
                  + (f" (failed: {', '.join(failed)})" if failed else "")
                  + (f"; equivalent: {row.equivalent}"
                     if row.equivalent else ""), flush=True)
            ok = ok and bool(row.equivalent) and not failed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
