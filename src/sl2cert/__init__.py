"""Exact verification toolkit for SL2(q) / PSL2(q) certificates.

Subpackages are imported lazily by the CLI; library users typically start
from `sl2cert.groups.enumerate_group` or `sl2cert.verify.Session`.
"""

__version__ = "0.1.0"
