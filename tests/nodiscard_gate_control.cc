// Checked twin of tests/nodiscard_gate_fixture.cc: the same calls, each
// consumed. Built with every test (-Werror=unused-result), so a
// false positive of the compiler gate breaks the build.

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fvae::nodiscard_gate {

Status Save(const std::string& path);
Result<std::vector<float>> Load(const std::string& path);

class Writer {
 public:
  Status Close();
};

Status ChecksEveryCall(Writer& w) {
  Status s = Save("a");
  if (!Save("b").ok()) return s;
  Result<std::vector<float>> decoded = Load("embeddings.bin");
  if (!decoded.ok()) return decoded.status();
  if (!w.Close().ok()) return s;
  return Save("c");
}

}  // namespace fvae::nodiscard_gate
