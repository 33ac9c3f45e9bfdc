// Compile-fail fixture for the nodiscard_gate ctest: every statement in
// the functions below drops a [[nodiscard]] Status or Result<T>. The test
// builds this file (it is not part of the default build) and passes only
// when the compiler reports all three discards as -Wunused-result;
// tests/nodiscard_gate_control.cc is the checked twin that must compile
// clean.

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

// A bare call whose Status is dropped.
void DropsBareStatus() { Save("model.bin"); }

// A member call returning Status, and a call returning Result<T>.
void DropsMemberStatusAndResult(Writer& w) {
  w.Close();
  Load("embeddings.bin");
}

}  // namespace fvae::nodiscard_gate
