#include "gen/hospital_generator.h"

#include <cstdint>
#include <random>
#include <string>

namespace smoqe::gen {

namespace {

const char* const kDiseases[] = {
    "heart disease", "lung disease", "brain disease", "diabetes",
    "influenza",     "asthma",       "arthritis",     "migraine",
};
const char* const kSpecialties[] = {"cardiology", "neurology", "oncology",
                                    "pediatrics"};
const char* const kCities[] = {"Edinburgh", "Istanbul", "Antwerp", "Madison"};

class Generator {
 public:
  explicit Generator(const HospitalParams& p) : p_(p), rng_(p.seed) {}

  xml::Tree Run() {
    xml::NodeId hospital = tree_.AddRoot("hospital");
    int departments = p_.departments < 1 ? 1 : p_.departments;
    std::vector<xml::NodeId> depts;
    for (int d = 0; d < departments; ++d) {
      xml::NodeId dept = tree_.AddElement(hospital, "department");
      AddTextChild(dept, "name", "dept-" + std::to_string(d));
      AddAddress(dept);
      depts.push_back(dept);
    }
    for (int i = 0; i < p_.patients; ++i) {
      AddPatient(depts[i % departments], i, p_.max_ancestor_depth,
                 /*allow_sibling=*/true);
    }
    return std::move(tree_);
  }

 private:
  bool Flip(double prob) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < prob;
  }
  int Range(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  void AddTextChild(xml::NodeId parent, const char* label,
                    const std::string& text) {
    tree_.AddText(tree_.AddElement(parent, label), text);
  }

  void AddAddress(xml::NodeId parent) {
    xml::NodeId address = tree_.AddElement(parent, "address");
    AddTextChild(address, "street", std::to_string(Range(1, 200)) + " Main St");
    AddTextChild(address, "city", kCities[Range(0, 3)]);
    AddTextChild(address, "zip", std::to_string(Range(10000, 99999)));
  }

  void AddVisit(xml::NodeId patient) {
    xml::NodeId visit = tree_.AddElement(patient, "visit");
    AddTextChild(visit, "date",
                 "2006-" + std::to_string(Range(1, 12)) + "-" +
                     std::to_string(Range(1, 28)));
    xml::NodeId treatment = tree_.AddElement(visit, "treatment");
    if (Flip(p_.medication_prob)) {
      xml::NodeId medication = tree_.AddElement(treatment, "medication");
      AddTextChild(medication, "type", "med-" + std::to_string(Range(1, 50)));
      const char* disease = Flip(p_.heart_disease_prob)
                                ? "heart disease"
                                : kDiseases[Range(1, 7)];
      AddTextChild(medication, "diagnosis", disease);
    } else {
      xml::NodeId test = tree_.AddElement(treatment, "test");
      AddTextChild(test, "type", "test-" + std::to_string(Range(1, 50)));
    }
    xml::NodeId doctor = tree_.AddElement(visit, "doctor");
    AddTextChild(doctor, "dname", "dr-" + std::to_string(Range(1, 500)));
    AddTextChild(doctor, "specialty", kSpecialties[Range(0, 3)]);
  }

  // A patient subtree: pname, address, visits, then the recursive family
  // history (ancestors share the patient description, as in the paper).
  void AddPatient(xml::NodeId parent, int serial, int ancestor_budget,
                  bool allow_sibling) {
    xml::NodeId patient = tree_.AddElement(parent, "patient");
    AddTextChild(patient, "pname", "p-" + std::to_string(serial));
    AddAddress(patient);
    int visits = Range(p_.visits_min, p_.visits_max);
    for (int v = 0; v < visits; ++v) AddVisit(patient);
    if (ancestor_budget > 0 && Flip(p_.parent_prob)) {
      xml::NodeId par = tree_.AddElement(patient, "parent");
      AddPatient(par, NextSerial(serial, 101, 1), ancestor_budget - 1,
                 /*allow_sibling=*/false);
    }
    if (allow_sibling && Flip(p_.sibling_prob)) {
      xml::NodeId sib = tree_.AddElement(patient, "sibling");
      AddPatient(sib, NextSerial(serial, 103, 2), 0, /*allow_sibling=*/false);
    }
  }

  // A relative's serial: serial * mul + add, wrapped to 32 bits. Ancestor
  // chains in documents of more than ~2,083 patients pass INT32_MAX. The
  // wrap is done in unsigned arithmetic, so it is defined behaviour, and it
  // gives the same serials (negative past the wrap), hence the same
  // document text, that earlier builds emitted.
  static int32_t NextSerial(int32_t serial, uint32_t mul, uint32_t add) {
    return static_cast<int32_t>(static_cast<uint32_t>(serial) * mul + add);
  }

  const HospitalParams& p_;
  xml::Tree tree_;
  std::mt19937_64 rng_;
};

}  // namespace

xml::Tree GenerateHospital(const HospitalParams& params) {
  return Generator(params).Run();
}

}  // namespace smoqe::gen
