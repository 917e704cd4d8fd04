// Every reclamation scheme as a gtest type list, in smr::AllDomains order,
// so typed suites iterate the same list as the factory and the sweeps.
#pragma once

#include <gtest/gtest.h>

#include "smr/all.hpp"

namespace pop::test {

template <class... Domains>
::testing::Types<Domains...> as_types(smr::DomainList<Domains...>);

using AllSchemes = decltype(as_types(smr::AllDomains{}));

}  // namespace pop::test
