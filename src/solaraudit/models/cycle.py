"""One solver for the sink-driven ring models.

The decay monomer (three_level.py), the donor-acceptor cycle
(donor_acceptor.py) and the photocell (photocell.py) are the same
structure: a ring of thermally driven transitions closed by one
irreversible sink, the "decay rate or sink" link under audit. A Ring is
the level energies plus the links (src, dst, bath, rate) listed in the
direction the cycle runs, each link's dst being the next link's src, so
that the ring visits every level once. A thermal link, tagged "abs" or
"loss", is a detailed-balance pair at the gap |E_dst - E_src| with base
rate gamma: gamma n up the gap and gamma (1 + n) down it. The one "sink"
link is a one-way jump at its rate.

In the steady state every link carries the same net flux J. With the
sink's source at population 1, J is the sink rate, and walking the ring
backwards fixes each link's source from its destination,

    p_src = (J + b p_dst) / f,

with f and b the link's forward and backward rates. Every steady-state
current is J times the energy the cycle moves through that bath.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..core import BATH_IDS, LindbladGenerator
from ..errors import NumericsError
from ..thermo import BathSpec, ThermoReport


@dataclass(frozen=True)
class Ring:
    """Level energies, the links (src, dst, bath, rate) in flow order and
    the temperatures of the "abs" and "loss" baths."""

    energies: tuple
    links: tuple
    t_abs: float
    t_loss: float

    def _gap(self, link):
        return self.energies[link[1]] - self.energies[link[0]]

    def _bath(self, link):
        _, _, bath, rate = link
        temperature = {"abs": self.t_abs, "loss": self.t_loss}.get(bath)
        return BathSpec(bath, temperature, rate)

    def _occupation(self, link):
        return self._bath(link).occupation(abs(self._gap(link)))

    def occupations(self):
        """Bose occupation of every thermal link at its gap, in ring order."""
        return tuple(self._occupation(link) for link in self.links if link[2] != "sink")

    def _steady(self):
        """(populations in level order, flux J).

        The walk runs on plain floats, where numpy scalars would warn: a
        zero forward rate or an overflowing ratio leaves a non-finite sum,
        which raises NumericsError, as does a vanished hot occupation.
        """
        links = self.links
        k = [link[2] for link in links].index("sink")
        flux = links[k][3]
        p = [0.0] * len(self.energies)
        p[links[k][0]] = total = 1.0
        for i in range(k - 1, k - len(links), -1):
            src, dst, bath, gamma = links[i]
            n = self._occupation(links[i])
            up, down = gamma * n, gamma * (1.0 + n)
            f, b = (up, down) if self._gap(links[i]) > 0 else (down, up)
            if f == 0.0 and bath == "abs":
                raise NumericsError("hot occupation vanished; cycle ratios undefined")
            p[src] = (flux + b * p[dst]) / f if f else math.inf
            total += p[src]
        if not math.isfinite(total):
            raise NumericsError("cycle ratios overflow; the rates span too many decades")
        norm = 1.0 / total
        return np.array(p) * norm, flux * norm

    def populations(self):
        """Steady populations, in level order."""
        return self._steady()[0]

    def report(self):
        """Steady-state audit. Each bath's current is the flux times the sum
        of its links' signed gaps E_dst - E_src in ring order; the sink
        carries the power."""
        gaps = dict.fromkeys(BATH_IDS, 0.0)
        for link in self.links:
            gaps[link[2]] += self._gap(link)
        flux = self._steady()[1]
        j_abs, j_loss, power = (gaps[bath] * flux for bath in BATH_IDS)
        return ThermoReport.from_currents(
            j_abs, j_loss, power, self.t_abs, self.t_loss, sink_flow=power
        )

    def generator(self):
        """Lindblad generator on the level basis: a thermal pair per thermal
        link, one one-way channel for the sink."""
        dim = len(self.energies)
        channels = []
        for link in self.links:
            src, dst, bath, _ = link
            gap = self._gap(link)
            jump = np.zeros((dim, dim), dtype=complex)
            if bath == "sink":
                jump[dst, src] = 1.0
                channels.append(self._bath(link).one_way(jump, abs(gap)))
            else:
                lower, upper = (src, dst) if gap > 0 else (dst, src)
                jump[lower, upper] = 1.0
                channels += self._bath(link).thermal_pair(jump, abs(gap))
        return LindbladGenerator(np.diag(self.energies).astype(complex), channels)
