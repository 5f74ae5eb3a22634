"""repcheck: exact verification that exactly two of the seven
teleportation-stable families admit a quantum realization.

Layers: Q(zeta_8) scalars (cyclo), multiplication-table groups (groups),
class-function algebra (characters), the seven-family classifier
(classify), exact protocol simulation (quantum), and a named runtime
verification battery (verify) exposed through the CLI (cli).  Names are
imported from their module, e.g. ``from repcheck.classify import classify_all``.

``import repcheck`` loads none of these modules.  Each CLI command loads
what it runs: classify, show-group and show-table load cyclo, groups,
characters and classify; simulate-teleport and simulate-swap add matrices
and quantum; verify-all adds verify.
"""

__version__ = "0.1.0"
