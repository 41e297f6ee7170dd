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

The donor-acceptor and photocell params give their ring as data, and
Ring.of builds it and checks it, the one validity rule of both models.

In the steady state every link carries the same net flux J. With the
sink's source at population 1, J is the sink rate, and walking the ring
backwards fixes each link's source from its destination,

    p_src = (J + b p_dst) / f,

with f and b the link's forward and backward rates. Every steady-state
current is J times the energy the cycle moves through that bath.
"""

import math
from dataclasses import dataclass

from ..audit import BATH_IDS, ThermoReport, bose_occupation
from ..errors import NumericsError


@dataclass(frozen=True)
class Ring:
    """Level energies, the links (src, dst, bath, rate) in flow order and
    the temperatures of the "abs" and "loss" baths."""

    energies: tuple
    links: tuple
    t_abs: float
    t_loss: float

    @classmethod
    def of(cls, params, levels, links):
        """The ring of params' level fields and links (label, src, dst, bath,
        rate field), in ring order. ValueError names the first thermal link
        not running up ("abs") or down ("loss") its gap, else the first
        thermal rate <= 0, else a sink rate < 0, else a temperature <= 0."""
        energies = tuple([getattr(params, name) for name in levels])
        thermal = [link for link in links if link[3] != "sink"]
        for label, src, dst, bath, _ in thermal:
            hi, lo = (dst, src) if bath == "abs" else (src, dst)
            if energies[hi] <= energies[lo]:
                raise ValueError(f"{label} gap {levels[hi]} - {levels[lo]} must be positive")
        for link in thermal:
            if getattr(params, link[4]) <= 0:
                raise ValueError(f"{link[4]} must be positive")
        (sink,) = [link[4] for link in links if link[3] == "sink"]
        if getattr(params, sink) < 0:
            raise ValueError(f"{sink} must be nonnegative")
        if params.t_abs <= 0 or params.t_loss <= 0:
            raise ValueError("t_abs and t_loss must be positive")
        ring = tuple([(src, dst, bath, getattr(params, rate)) for _, src, dst, bath, rate in links])
        return cls(energies, ring, params.t_abs, params.t_loss)

    def _gap(self, link):
        return self.energies[link[1]] - self.energies[link[0]]

    def _temperature(self, link):
        return {"abs": self.t_abs, "loss": self.t_loss}[link[2]]

    def _occupation(self, link):
        return bose_occupation(abs(self._gap(link)), self._temperature(link))

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
        return [x * norm for x in p], flux * norm

    def populations(self):
        """Steady populations, in level order, as an array."""
        import numpy as np

        return np.array(self._steady()[0])

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
        """Lindblad generator on the level basis: one table of a thermal
        pair per thermal link, in ring order, and the sink's one-way
        channel. It loads numpy and the master-equation layer."""
        import numpy as np

        from ..core import DissipationChannel, LindbladGenerator, Triplets
        from ..thermo import thermal_pairs

        dim = len(self.energies)
        thermal = [link for link in self.links if link[2] != "sink"]
        (sink,) = (link for link in self.links if link[2] == "sink")
        gap = [self._gap(link) for link in thermal]
        lower = np.zeros((len(thermal), dim, dim), dtype=complex)
        for k, (src, dst, _, _) in enumerate(thermal):  # |lower level><upper level|
            lower[(k, src, dst) if gap[k] > 0 else (k, dst, src)] = 1.0
        _, _, bath, rate = zip(*thermal)
        temperature = [self._temperature(link) for link in thermal]
        pairs = thermal_pairs(bath, temperature, lower, np.abs(gap), rate)
        jump = Triplets([sink[1]], [sink[0]], [1.0], (dim, dim))
        sink = DissipationChannel(jump, sink[3], "sink", abs(self._gap(sink)))
        return LindbladGenerator(np.diag(self.energies).astype(complex), [pairs, sink])
