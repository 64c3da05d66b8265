"""The method registry: one name-to-model map for train, test, persist and the grid.

Each model class carries its method's facts (its name and sizes, how to
resolve and fit them, its space formula, its per-point answer and its record
fields), so callers look a method up here and run one path for all of them.
README.md ("Model protocol") lists the members.
"""

from .baselines import NystromModel, RncaModel
from .skpca import SkpcaModel

MODELS = {cls.method: cls for cls in (SkpcaModel, RncaModel, NystromModel)}
METHODS = tuple(MODELS)
