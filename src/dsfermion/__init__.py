"""Digital quantum simulation of a free staggered fermion in a 1+1D de Sitter universe.

The API lives in the submodules (``dsfermion.model``, ``dsfermion.evolve``,
``dsfermion.state`` and so on); the package root exports only the version.
"""

__version__ = "0.1.0"
