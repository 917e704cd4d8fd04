#include <cstdio>
#include <iterator>

#include "ds/iset.hpp"
#include "smr/all.hpp"

namespace pop::ds {

// Implemented one-per-DS in set_factory_<ds>.cpp.
std::unique_ptr<IKV> make_hm_list(const std::string&, const SetConfig&);
std::unique_ptr<IKV> make_lazy_list(const std::string&, const SetConfig&);
std::unique_ptr<IKV> make_hash_table(const std::string&, const SetConfig&);
std::unique_ptr<IKV> make_resizable_hash_table(const std::string&,
                                               const SetConfig&);
std::unique_ptr<IKV> make_dgt_bst(const std::string&, const SetConfig&);
std::unique_ptr<IKV> make_ab_tree(const std::string&, const SetConfig&);

const std::vector<std::string>& all_smr_names() {
  static const std::vector<std::string> names(
      std::begin(smr::AllDomains::kNames), std::end(smr::AllDomains::kNames));
  return names;
}

const std::vector<std::string>& all_ds_names() {
  static const std::vector<std::string> names = {"HML", "LL", "HMHT", "RHHT",
                                                 "DGT", "ABT"};
  return names;
}

std::unique_ptr<IKV> make_kv(const std::string& ds, const std::string& smr,
                             const SetConfig& cfg) {
  if (ds == "HML") return make_hm_list(smr, cfg);
  if (ds == "LL") return make_lazy_list(smr, cfg);
  if (ds == "HMHT") return make_hash_table(smr, cfg);
  // "rhht" is the factory name the resizable table was introduced under;
  // "RHHT" is the canonical catalogue spelling. Accept both.
  if (ds == "RHHT" || ds == "rhht") {
    return make_resizable_hash_table(smr, cfg);
  }
  if (ds == "DGT") return make_dgt_bst(smr, cfg);
  if (ds == "ABT") return make_ab_tree(smr, cfg);
  std::fprintf(stderr,
               "popsmr: unknown data structure '%s' (known: HML, LL, HMHT, "
               "RHHT, DGT, ABT)\n",
               ds.c_str());
  return nullptr;
}

}  // namespace pop::ds
