// Convenience include: every reclamation scheme in the library, and the
// one list of them that the factory's name dispatch, all_smr_names() and
// every scheme-parameterised sweep derive from.
#pragma once

#include <string_view>

#include "core/epoch_pop.hpp"     // EpochPOP       (paper Alg. 3)
#include "smr/brc.hpp"            // BRC (Crystalline substitute)
#include "smr/ebr.hpp"            // EBR            (paper Alg. 6)
#include "smr/hazard_domain.hpp"  // HP, HPAsym, HE (paper Alg. 4),
                                  // HazardPtrPOP (paper Alg. 1+2),
                                  // HazardEraPOP (paper Alg. 5)
#include "smr/ibr.hpp"            // IBR (2GE)
#include "smr/nbr.hpp"            // NBR+
#include "smr/nr.hpp"             // NR (leaky)

namespace pop::smr {

template <class... Domains>
struct DomainList {
  static constexpr const char* kNames[] = {Domains::kName...};

  // Calls `f.template operator()<D>()` for the domain whose kName is
  // `name`; false when no domain has that name.
  template <class F>
  static bool visit(std::string_view name, F&& f) {
    return ((name == Domains::kName &&
             (f.template operator()<Domains>(), true)) ||
            ...);
  }
};

// In the order sweeps and parameterised tests iterate them.
using AllDomains =
    DomainList<NrDomain, HpDomain, HpAsymDomain, HeDomain, EbrDomain,
               IbrDomain, NbrDomain, BrcDomain, core::EpochPopDomain,
               core::HazardEraPopDomain, core::HazardPtrPopDomain>;

}  // namespace pop::smr
