"""Each module of ``thetapm`` keeps its private names to itself.

A name with a leading underscore is an implementation detail of the module
that defines it; a sibling that imports one reaches past that module's
interface, so the decision it encodes no longer lives in one place.  A
rule that several modules apply has one owner too, and its wording lives
there alone.
"""

import ast
import os

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, "..", "src", "thetapm")


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))
    assert len(modules) > 10
    found = []
    for name in modules:
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "thetapm":
                continue
            found += ["%s:%d imports %s from %s" % (name, node.lineno, a.name, module or ".")
                      for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
    assert not found, found


def test_only_padics_words_the_odd_prime_rule():
    # every check that p is an odd prime goes through padics.odd_prime
    found = []
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "p must be an odd prime" in node.value]
    assert found and all(f.startswith("padics.py:") for f in found), found


def test_the_ledger_oracle_takes_no_private_name_from_chern():
    # an oracle that borrows a private helper of the code it checks, such as
    # a label printer, repeats that helper's faults on both sides of the test
    with open(os.path.join(HERE, "ledger_oracle.py")) as fh:
        tree = ast.parse(fh.read(), "ledger_oracle.py")
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module == "thetapm.chern" for a in node.names]
    assert names and not [n for n in names if n.startswith("_")], names
